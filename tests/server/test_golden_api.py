"""Golden-request regression suite for the JSON API.

Replays a fixed-seed corpus of requests through :class:`~repro.server.api.JsonApi`
and compares the **full response dicts** against checked-in golden files under
``tests/server/golden/``.  Mining is deterministic for a fixed seed, so any
drift in a response is a behaviour change that must be reviewed — rerun with

    pytest tests/server/test_golden_api.py --update-golden

to rewrite the golden files after an intentional change, and commit the diff.

Volatile fields (wall-clock timings, cache/pool counters) are normalised
before comparison so the suite is stable across machines and replay order;
everything else — group selections, objectives, coverages, histograms, error
payloads — is compared exactly.

The suite is also the **backend differential**: the frozen-store and
ingestion corpora replay twice, once on the lane's backend and once on the
other one (:data:`OTHER_BACKEND`), against the *same* golden files, so every
run proves the shared-memory worker path byte-identical to the thread path.
Setting ``MAPRAT_MINING_BACKEND=process`` (the dedicated CI lane does) swaps
the two, running the durability corpus on the process backend as well.
Likewise, setting ``MAPRAT_GOLDEN_DATA_DIR=1`` (the durability CI lane)
gives every replayed system a temporary data directory, proving that
WAL-backed ingest and recovery-enabled startup leave every public response
byte-identical to the in-memory path.  The durability endpoints
themselves (``snapshot``/``recovery_info``) replay against a dedicated
durable system through :data:`DURABLE_CORPUS`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import PipelineConfig, ServerConfig
from repro.errors import ServerError
from repro.server.api import JsonApi, MapRat

#: Mining backend the corpus replays under ("thread" unless the CI lane
#: overrides it); golden files are backend-independent by construction.
BACKEND = os.environ.get("MAPRAT_MINING_BACKEND", "thread")

#: When truthy, the ``api``/``ingest_api`` systems get a temporary data
#: directory — the durability differential lane.  Golden files must not
#: change: durability is a recovery guarantee, never a response change.
GOLDEN_DATA_DIR = os.environ.get("MAPRAT_GOLDEN_DATA_DIR", "") not in ("", "0")

#: The backend the differential classes replay on: whichever one the lane
#: does not use, so each run covers both.
OTHER_BACKEND = "thread" if BACKEND == "process" else "process"

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The replayed corpus: (name, endpoint, params).  Covers every public
#: endpoint of ``JsonApi.routes()`` at least once, plus the error paths.
CORPUS = [
    ("summary", "summary", {}),
    ("suggest_toy", "suggest", {"prefix": "Toy"}),
    ("suggest_jur_limit_3", "suggest", {"prefix": "Jur", "limit": "3"}),
    ("suggest_no_match", "suggest", {"prefix": "zzz-nothing"}),
    ("explain_toy_story", "explain", {"q": 'title:"Toy Story"'}),
    ("explain_toy_story_lowercase", "explain", {"q": 'title:"toy story"'}),
    ("explain_forrest_gump", "explain", {"q": 'title:"Forrest Gump"'}),
    (
        "explain_year_2001",
        "explain",
        {"q": 'title:"Toy Story"', "start_year": "2001", "end_year": "2001"},
    ),
    (
        "explain_genre_and_director",
        "explain",
        {"q": 'genre:Thriller AND director:"Steven Spielberg"'},
    ),
    (
        "statistics_similarity_g0",
        "statistics",
        {"q": 'title:"Toy Story"', "task": "similarity", "group": "0"},
    ),
    (
        "statistics_diversity_g0",
        "statistics",
        {"q": 'title:"Toy Story"', "task": "diversity", "group": "0"},
    ),
    (
        "drilldown_similarity_g0",
        "drilldown",
        {"q": 'title:"Toy Story"', "task": "similarity", "group": "0"},
    ),
    (
        "drilldown_diversity_g0",
        "drilldown",
        {"q": 'title:"Forrest Gump"', "task": "diversity", "group": "0"},
    ),
    ("timeline_toy_story", "timeline", {"q": 'title:"Toy Story"', "min_ratings": "10"}),
    (
        "timeline_forrest_gump",
        "timeline",
        {"q": 'title:"Forrest Gump"', "min_ratings": "10"},
    ),
    ("warmup_limit_2", "warmup", {"limit": "2"}),
    ("warmup_with_regions", "warmup", {"limit": "1", "regions": "2"}),
    ("geo_summary_country", "geo_summary", {}),
    ("geo_summary_toy_story", "geo_summary", {"q": 'title:"Toy Story"'}),
    (
        "geo_summary_min_size_20",
        "geo_summary",
        {"q": 'title:"Toy Story"', "min_size": "20"},
    ),
    ("geo_drilldown_states", "geo_drilldown", {"q": 'title:"Toy Story"'}),
    ("geo_drilldown_ca_cities", "geo_drilldown", {"region": "CA"}),
    (
        "geo_drilldown_ca_zipcodes",
        "geo_drilldown",
        {"region": "CA", "by": "zipcode"},
    ),
    (
        "geo_drilldown_lowercase_region",
        "geo_drilldown",
        {"region": "ca", "q": 'title:"Toy Story"'},
    ),
    (
        "geo_explain_toy_story_ca",
        "geo_explain",
        {"q": 'title:"Toy Story"', "region": "CA"},
    ),
    ("choropleth_toy_story", "choropleth", {"q": 'title:"Toy Story"'}),
    (
        "choropleth_toy_story_diversity",
        "choropleth",
        {"q": 'title:"Toy Story"', "task": "diversity"},
    ),
    ("error_geo_unknown_region", "geo_drilldown", {"region": "ZZ"}),
    ("error_geo_bad_min_size", "geo_summary", {"min_size": "abc"}),
    ("error_geo_bad_by", "geo_drilldown", {"region": "CA", "by": "county"}),
    ("error_geo_explain_missing_region", "geo_explain", {"q": 'title:"Toy Story"'}),
    (
        "error_geo_explain_empty_region",
        "geo_explain",
        {"q": 'title:"Toy Story"', "region": "WY"},
    ),
    (
        "error_choropleth_bad_task",
        "choropleth",
        {"q": 'title:"Toy Story"', "task": "nonsense"},
    ),
    ("error_missing_query", "explain", {}),
    ("error_unmatched_query", "explain", {"q": 'title:"No Such Movie"'}),
    ("error_bad_year", "explain", {"q": "Toy", "start_year": "not-a-year"}),
    ("error_bad_group_index", "statistics", {"q": 'title:"Toy Story"', "group": "99"}),
    ("error_unknown_endpoint", "nonsense", {}),
]

#: The live-ingestion corpus replays against its **own** system (ingest
#: mutates the store, and the frozen-store corpus above must stay
#: byte-identical).  Order matters and is part of the contract: each entry
#: documents the epoch/buffer state the previous entries left behind.
INGEST_CORPUS = [
    ("ingest_store_stats_initial", "store_stats", {}),
    (
        "ingest_accept",
        "ingest",
        {"item_id": "1", "reviewer_id": "1", "score": "5", "timestamp": "123"},
    ),
    (
        "ingest_duplicate",
        "ingest",
        {"item_id": "1", "reviewer_id": "1", "score": "5", "timestamp": "123"},
    ),
    (
        "ingest_new_reviewer",
        "ingest",
        {
            "item_id": "2",
            "reviewer_id": "9001",
            "score": "4",
            "timestamp": "456",
            "gender": "F",
            "age": "25",
            "occupation": "artist",
            "zipcode": "90210",
        },
    ),
    (
        # Brings the buffer to the auto_compact_threshold of the fixture:
        # the response embeds the compaction summary for epoch 1.
        "ingest_batch_compacts",
        "ingest_batch",
        {
            "ratings": json.dumps(
                [
                    {"item_id": 3, "reviewer_id": 2, "score": 2, "timestamp": 789},
                    {"item_id": 3, "reviewer_id": 9001, "score": 1, "timestamp": 790},
                ]
            )
        },
    ),
    ("ingest_store_stats_after_compaction", "store_stats", {}),
    ("ingest_compact_noop", "compact", {}),
    ("error_ingest_unknown_item", "ingest", {"item_id": "999999", "reviewer_id": "1", "score": "3"}),
    (
        "error_ingest_unknown_reviewer",
        "ingest",
        {"item_id": "1", "reviewer_id": "424242", "score": "3"},
    ),
    ("error_ingest_bad_score", "ingest", {"item_id": "1", "reviewer_id": "1", "score": "9"}),
    (
        "error_ingest_score_not_number",
        "ingest",
        {"item_id": "1", "reviewer_id": "1", "score": "five"},
    ),
    ("error_ingest_missing_fields", "ingest", {"reviewer_id": "1", "score": "3"}),
    (
        "error_ingest_existing_reviewer_record",
        "ingest",
        {
            "item_id": "1",
            "reviewer_id": "1",
            "score": "3",
            "gender": "M",
            "age": "35",
            "occupation": "lawyer",
            "zipcode": "10001",
        },
    ),
    ("error_ingest_batch_missing", "ingest_batch", {}),
    ("error_ingest_batch_malformed_json", "ingest_batch", {"ratings": "not-json"}),
    ("error_ingest_batch_not_array", "ingest_batch", {"ratings": '{"item_id": 1}'}),
    (
        "error_ingest_batch_bad_entry",
        "ingest_batch",
        {"ratings": '[{"item_id": 1, "score": 3}]'},
    ),
    (
        "error_ingest_batch_too_large",
        "ingest_batch",
        {
            "ratings": json.dumps(
                [
                    {"item_id": 1, "reviewer_id": 1, "score": 3, "timestamp": t}
                    for t in range(9)
                ]
            )
        },
    ),
]

#: The durability corpus replays against its own WAL-backed system (the
#: endpoints only exist with a data directory, and ingest mutates state).
#: Order matters: each entry documents the WAL/snapshot state the previous
#: entries left behind.
DURABLE_CORPUS = [
    ("durable_recovery_info_fresh", "recovery_info", {}),
    (
        "durable_ingest_new_reviewer",
        "ingest",
        {
            "item_id": "2",
            "reviewer_id": "9001",
            "score": "4",
            "timestamp": "456",
            "gender": "F",
            "age": "25",
            "occupation": "artist",
            "zipcode": "90210",
        },
    ),
    ("durable_compact_epoch_1", "compact", {}),
    ("durable_snapshot_on_demand", "snapshot", {}),
    (
        "durable_ingest_buffered",
        "ingest",
        {"item_id": "1", "reviewer_id": "9001", "score": "3", "timestamp": "500"},
    ),
    ("durable_recovery_info_active", "recovery_info", {}),
    ("durable_store_stats", "store_stats", {}),
]

#: Keys whose values depend on wall-clock or replay order, never on behaviour.
#: ``description`` is replay-order-dependent by design: equivalent requests
#: share one canonical cache entry, which keeps the description of whichever
#: request populated it (first-writer-wins), e.g. a title's case variants.
#: ``path``/``data_dir``/``bytes`` are durability-payload fields tied to the
#: temporary directory (and to pickle/platform details) of one run.
VOLATILE_KEYS = {
    "elapsed_seconds",
    "cache",
    "cache_entries",
    "serving",
    "description",
    "path",
    "data_dir",
    "bytes",
}


def normalize(payload):
    """Replace volatile values so responses compare stably across runs."""
    if isinstance(payload, dict):
        return {
            key: ("<volatile>" if key in VOLATILE_KEYS else normalize(value))
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [normalize(value) for value in payload]
    return payload


def _maybe_data_dir(tmp_path_factory, label):
    """A temporary data_dir under the durability lane, None otherwise."""
    if not GOLDEN_DATA_DIR:
        return None
    return str(tmp_path_factory.mktemp(label))


@pytest.fixture(scope="module")
def api(tiny_dataset, mining_config, tmp_path_factory):
    """A fresh deterministic system; the corpus replays against one instance."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            mining_backend=BACKEND,
            data_dir=_maybe_data_dir(tmp_path_factory, "golden-frozen"),
        ),
    )
    system = MapRat.for_dataset(tiny_dataset, config)
    yield JsonApi(system)
    system.close()  # the process backend owns worker procs + shm segments


@pytest.fixture(scope="module")
def other_api(tiny_dataset, mining_config, tmp_path_factory):
    """The frozen-store system again, on :data:`OTHER_BACKEND`."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            mining_backend=OTHER_BACKEND,
            mining_workers=2,
            data_dir=_maybe_data_dir(tmp_path_factory, "golden-frozen-other"),
        ),
    )
    system = MapRat.for_dataset(tiny_dataset, config)
    yield JsonApi(system)
    system.close()


def _ingest_system(tiny_dataset, mining_config, backend, data_dir, **server) -> MapRat:
    """A dedicated mutable system for the ingestion corpus.

    ``auto_compact_threshold=4`` makes the batch entry of the corpus trigger
    the epoch-1 compaction deterministically; the tiny ``ingest_batch_size``
    keeps the oversized-batch error shape small.
    """
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            auto_compact_threshold=4,
            ingest_batch_size=8,
            mining_backend=backend,
            data_dir=data_dir,
            **server,
        ),
    )
    return MapRat.for_dataset(tiny_dataset, config)


@pytest.fixture(scope="module")
def ingest_api(tiny_dataset, mining_config, tmp_path_factory):
    system = _ingest_system(
        tiny_dataset,
        mining_config,
        BACKEND,
        _maybe_data_dir(tmp_path_factory, "golden-ingest"),
    )
    yield JsonApi(system)
    system.close()


@pytest.fixture(scope="module")
def other_ingest_api(tiny_dataset, mining_config, tmp_path_factory):
    system = _ingest_system(
        tiny_dataset,
        mining_config,
        OTHER_BACKEND,
        _maybe_data_dir(tmp_path_factory, "golden-ingest-other"),
        mining_workers=2,
    )
    yield JsonApi(system)
    system.close()


@pytest.fixture(scope="module")
def durable_api(tiny_dataset, mining_config, tmp_path_factory):
    """A WAL-backed system for the durability corpus (always has a data_dir)."""
    config = PipelineConfig(
        mining=mining_config,
        server=ServerConfig(
            mining_backend=BACKEND,
            data_dir=str(tmp_path_factory.mktemp("golden-durable")),
        ),
    )
    system = MapRat.for_dataset(tiny_dataset, config)
    yield JsonApi(system)
    system.close()


def replay(api, endpoint, params):
    """One request through the dispatcher; error responses become payloads."""
    try:
        return api.dispatch(endpoint, params)
    except ServerError as exc:
        return {"error": str(exc), "status": exc.status}


def assert_matches_golden(request, name, payload, update=True):
    """Compare one normalised payload against its checked-in golden file.

    ``update=False`` compares even under ``--update-golden``: the
    other-backend replays check the files the lane's replays just wrote.
    """
    payload = json.loads(json.dumps(payload))
    golden_path = GOLDEN_DIR / f"{name}.json"
    if update and request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if not golden_path.exists():
        pytest.fail(
            f"golden file {golden_path} is missing; run "
            "pytest tests/server/test_golden_api.py --update-golden and commit it"
        )
    assert payload == json.loads(golden_path.read_text())


class TestGoldenRequests:
    def test_corpus_covers_every_public_endpoint(self, api):
        exercised = {endpoint for _, endpoint, _ in CORPUS}
        exercised |= {endpoint for _, endpoint, _ in INGEST_CORPUS}
        exercised |= {endpoint for _, endpoint, _ in DURABLE_CORPUS}
        assert exercised >= set(api.routes().keys())

    def test_corpus_names_are_unique(self):
        names = [name for name, _, _ in CORPUS + INGEST_CORPUS + DURABLE_CORPUS]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        "name,endpoint,params", CORPUS, ids=[name for name, _, _ in CORPUS]
    )
    def test_response_matches_golden(self, api, request, name, endpoint, params):
        # json round-trip: tuples become lists, exactly as the HTTP layer
        # would serialise them, so golden comparison matches the wire format.
        assert_matches_golden(request, name, normalize(replay(api, endpoint, params)))


class TestGoldenIngestRequests:
    """The ingestion corpus: success and validation-error shapes.

    Runs against its own system (see :func:`ingest_api`) in corpus order —
    the frozen-store corpus above must never observe ingest mutations, and
    ``git diff`` over ``tests/server/golden/`` after a regeneration proves
    the pre-existing mining/geo goldens stayed byte-identical.
    """

    @pytest.mark.parametrize(
        "name,endpoint,params",
        INGEST_CORPUS,
        ids=[name for name, _, _ in INGEST_CORPUS],
    )
    def test_response_matches_golden(self, ingest_api, request, name, endpoint, params):
        assert_matches_golden(
            request, name, normalize(replay(ingest_api, endpoint, params))
        )


class TestGoldenRequestsOnOtherBackend:
    """The frozen-store corpus through :data:`OTHER_BACKEND`: same goldens."""

    @pytest.mark.parametrize(
        "name,endpoint,params", CORPUS, ids=[name for name, _, _ in CORPUS]
    )
    def test_response_matches_golden(self, other_api, request, name, endpoint, params):
        assert_matches_golden(
            request,
            name,
            normalize(replay(other_api, endpoint, params)),
            update=False,
        )


class TestGoldenIngestRequestsOnOtherBackend:
    """The ingestion corpus through :data:`OTHER_BACKEND`, in corpus order.

    On the process backend this drives the epoch-1 compaction through the
    publish → swap → retire protocol of the shared-memory exports.
    """

    @pytest.mark.parametrize(
        "name,endpoint,params",
        INGEST_CORPUS,
        ids=[name for name, _, _ in INGEST_CORPUS],
    )
    def test_response_matches_golden(
        self, other_ingest_api, request, name, endpoint, params
    ):
        assert_matches_golden(
            request,
            name,
            normalize(replay(other_ingest_api, endpoint, params)),
            update=False,
        )


class TestGoldenDurableRequests:
    """The durability corpus: snapshot / recovery_info response shapes.

    Runs against its own WAL-backed system in corpus order — every entry's
    golden file documents the exact durability state (active WAL epoch,
    snapshot chain, buffered rows) the preceding entries established.
    """

    @pytest.mark.parametrize(
        "name,endpoint,params",
        DURABLE_CORPUS,
        ids=[name for name, _, _ in DURABLE_CORPUS],
    )
    def test_response_matches_golden(self, durable_api, request, name, endpoint, params):
        assert_matches_golden(
            request, name, normalize(replay(durable_api, endpoint, params))
        )
