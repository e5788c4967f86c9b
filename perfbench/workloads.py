"""Seeded inputs of the MapRat benchmark: one dataset and one request stream per connection.

Every input is a pure function of ``--seed``.  The dataset is the repo's
own synthetic generator at the ``medium`` preset, always drawn with
``DATASET_SEED``; ``--seed`` drives every connection's request stream.  The
dataset's seed is fixed because how costly a dataset is to mine varies with
it: generator seed 11's cold reads mine ~48% slower in-process than seed
12's (~45% more candidate groups per slice), which would put the run-to-run
spread of the cold read metrics near 0.4.  So the seed varies what is
asked, not the data it is asked of.  The streams are
screened against the dataset exactly as the server will load it (the
``.dat`` files are read back with the server's own loader), so no request is
expected to fail: a selection is kept only when some candidate group can meet
the miner's minimum support, which is the one way a well-formed request to
these endpoints can still be answered 400.

Why each workload exists:

* ``cold_explain`` - every read is a selection the run has not asked before
  and the warm-up did not mine, so the result cache only misses and almost
  all server time goes to query -> slice -> candidate enumeration -> RHE ->
  assembly.  Changes to mining (one enumeration per request, a batched hill
  climb, the default backend) show here; cache, query, edge and encoding
  changes should not.
* ``map_session`` - seeded user sessions walk the whole map UI for one title
  (suggest, explain, choropleth, statistics, drill-down, geo summary, geo
  drill-down, geo explain; one session in ten adds the uncached timeline).
  Titles are Zipf-distributed over popularity, so the head hits the warm
  cache and the tail misses, and five cache keys per title push the working
  set past the default 256-entry cache.  Most time goes to the edge, router,
  query resolution, cache, statistics and encoding, so those changes show
  here.
* ``live_ingest`` - one connection posts fixed-size rating batches on a fixed
  schedule with a compaction every few batches while the other replays the
  session script over the most popular titles.  It is the only workload that
  reaches ``data.ingest``, durability, the epoch swap, cache migration and
  re-warm, so a change that buys read speed with costlier compactions shows
  here.

The two read workloads end each server's window with a short closed-loop
write probe on tail items their reads never select (``Inputs.probe``), so
every workload reports the ingest and compaction metrics.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple
from urllib.parse import quote, urlencode

WORKLOADS = ("cold_explain", "map_session", "live_ingest")

#: Synthetic preset and generator seed of the served dataset (see the
#: module docstring).
PRESET = "medium"
DATASET_SEED = 2012
#: Directory of the checkout that keeps the generated dataset between runs.
DATASET_CACHE = ".perfbench-dataset"
#: Popular items the server pre-mines at start-up (``serve --warm-up``).
WARM_ANCHORS = 50
#: One cycle of the ``cold_explain`` stream: the kinds of cold read it asks
#: for (in a seeded order).  Director-genre selections are the large ones.
COLD_CYCLE = ("title",) * 3 + ("title_year",) * 3 + ("geo",) * 3 + ("director_genre",)
#: Slice-size strata each cold-read kind is drawn across evenly.
STRATA = 10
#: Sessions whose titles are drawn from one set of stratified uniforms.
ZIPF_BLOCK = 50
#: Item-count range of a ``director:... AND genre:...`` selection.
DIRECTOR_GENRE_ITEMS = (2, 30)
#: States per title that ``cold_explain`` may ask ``geo_explain`` about.
GEO_TOP_STATES = 3
#: Popular titles the ``live_ingest`` reader replays sessions over.
LIVE_READER_TITLES = 40
#: One ``map_session`` session in this many also asks for the timeline.
TIMELINE_EVERY = 10

#: Writer schedule: rows per batch, seconds between batch due times, and a
#: compaction after every this many batches.
BATCH_ROWS = 50
BATCH_PERIOD_S = 0.1
COMPACT_EVERY = 20
#: Rows per compaction period that rate a title the reader keeps hot.  Each
#: costs the compaction one or two re-warmed anchors; the writer's work is
#: fixed per second, so keeping it small keeps a slower machine from
#: squeezing the reader out.  The periods' hot titles are drawn across
#: popularity strata, so every run re-warms the same mix of slice sizes.
HOT_ROWS_PER_COMPACTION = 1
#: Share of entries that register a new reviewer.
NEW_REVIEWER_SHARE = 0.05

#: Write probe of the read workloads: batches (closed loop), rows per batch,
#: and the tail items it rates, which no read of theirs selects, so its
#: compactions carry the whole cache forward and re-warm nothing.  Batches
#: are larger than the live writer's so that a millisecond of scheduling
#: jitter does not decide their p90, and a run holds 200 of them and 10
#: compactions so that a few slow ones do not either.
PROBE_BATCHES = 100
PROBE_ROWS = 500
PROBE_ITEMS = 60


@dataclass(frozen=True)
class Request:
    """One HTTP request of a stream."""

    method: str
    path: str
    endpoint: str
    body: Optional[bytes] = None
    rows: int = 0
    new_reviewers: int = 0


@dataclass
class Inputs:
    """Everything one run sends, all derived from the seed."""

    seed: int
    data_dir: Path
    shape: Dict[str, int]
    catalog: "Catalog"
    cold_streams: List[List[Request]] = field(default_factory=list)
    cold_mix: Dict[str, int] = field(default_factory=dict)
    session_titles: List[Tuple[int, str]] = field(default_factory=list)
    live_titles: List[Tuple[int, str]] = field(default_factory=list)
    #: The writer's batches, one stream per server.
    live_batches: List[List[Request]] = field(default_factory=list)
    probe: List[Request] = field(default_factory=list)


def _get(endpoint: str, **params: str) -> Request:
    query = urlencode(params, quote_via=quote)
    return Request("GET", f"/api/{endpoint}?{query}", endpoint)


def _title_query(title: str) -> str:
    # Same spelling as the warm-up's anchor descriptions, so a cached anchor
    # and a fresh mining of one title return identical payloads.
    return f'title:"{title}"'


def _ingest_request(entries: List[dict]) -> Request:
    """A ``POST /api/ingest_batch`` carrying ``entries``."""
    body = json.dumps({"ratings": entries}).encode("utf-8")
    return Request(
        "POST",
        "/api/ingest_batch",
        "ingest_batch",
        body=body,
        rows=len(entries),
        new_reviewers=sum(1 for entry in entries if "reviewer" in entry),
    )


COMPACT = Request("POST", "/api/compact", "compact")


class Catalog:
    """Per-item rating counts of the served dataset, for screening and popularity."""

    def __init__(self, dataset, min_support: int) -> None:
        self.dataset = dataset
        self.min_support = min_support
        reviewers = {reviewer.reviewer_id: reviewer for reviewer in dataset.reviewers()}
        self.reviewer_ids = sorted(reviewers)
        self.reviewers = reviewers
        self.items = {item.item_id: item for item in dataset.items()}
        self.count: Counter = Counter()
        self.by_state: Dict[int, Counter] = defaultdict(Counter)
        self.by_year_state: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
        self.by_state_city: Dict[Tuple[int, str], Counter] = defaultdict(Counter)
        self.rated: Set[Tuple[int, int]] = set()
        years: Set[int] = set()
        timestamps = []
        for rating in dataset.ratings():
            reviewer = reviewers[rating.reviewer_id]
            year = time.gmtime(rating.timestamp).tm_year
            item_id = rating.item_id
            self.count[item_id] += 1
            self.by_state[item_id][reviewer.state] += 1
            self.by_year_state[(item_id, year)][reviewer.state] += 1
            self.by_state_city[(item_id, reviewer.state)][reviewer.city] += 1
            self.rated.add((rating.reviewer_id, item_id))
            years.add(year)
            timestamps.append(rating.timestamp)
        self.years = sorted(years)
        self.timestamp_range = (min(timestamps), max(timestamps))
        # The server's warm-up order: most-rated first, ties by item id.
        self.popular = sorted(self.count, key=lambda item_id: (-self.count[item_id], item_id))
        titles = Counter(item.title.lower() for item in self.items.values())
        self.unique_title = {
            item_id
            for item_id, item in self.items.items()
            if titles[item.title.lower()] == 1 and '"' not in item.title
        }

    def _minable(self, counter: Counter) -> bool:
        # A selection mines iff one geo-anchor value (a non-empty state, or a
        # city inside a region) reaches the minimum support on its own.
        return any(value and n >= self.min_support for value, n in counter.items())

    def explain_ok(self, item_ids: Sequence[int], year: Optional[int] = None) -> bool:
        states: Counter = Counter()
        for item_id in item_ids:
            states.update(
                self.by_state[item_id] if year is None else self.by_year_state[(item_id, year)]
            )
        return self._minable(states)

    def geo_ok(self, item_id: int, state: str) -> bool:
        return bool(state) and self._minable(self.by_state_city[(item_id, state)])

    def top_states(self, item_id: int) -> List[str]:
        counts = self.by_state[item_id]
        return [s for s in sorted(counts, key=lambda s: (-counts[s], s)) if s]

    def title(self, item_id: int) -> str:
        return self.items[item_id].title


def dataset(cache: Path, scratch: Path) -> Path:
    """The served ``.dat`` files under ``cache``, generated there by a checkout's first run.

    The dataset depends only on ``PRESET`` and ``DATASET_SEED`` (and the
    generator's code, which a checkout never changes), so later runs reuse
    it rather than spend seconds of every run regenerating it.  It is
    written under ``scratch`` and renamed into place, so a killed run never
    leaves half a dataset behind.
    """
    from repro.data.movielens import write_movielens_directory
    from repro.data.synthetic import generate_dataset

    directory = cache / f"{PRESET}-{DATASET_SEED}"
    if not directory.is_dir():
        fresh = scratch / "movielens"
        write_movielens_directory(generate_dataset(PRESET, seed=DATASET_SEED), fresh)
        cache.mkdir(exist_ok=True)
        os.replace(fresh, directory)
    return directory


def prepare(workload: str, seed: int, directory: Path, window_s: float, servers: int) -> Inputs:
    """Build ``workload``'s streams against the dataset in ``directory``.

    ``window_s`` is one server's timed window; the scheduled writer gets
    exactly the batches that fall due inside it, for each of ``servers``
    servers.  The servers get different writer streams, cut from one
    sequence whose compaction periods are stratified together, so a run's
    compactions re-warm titles from every popularity stratum once rather
    than the same few twice.
    """
    from repro.config import MiningConfig
    from repro.data.movielens import load_movielens_directory

    served = load_movielens_directory(directory)
    catalog = Catalog(served, MiningConfig().min_group_support)
    inputs = Inputs(
        seed=seed,
        data_dir=directory,
        shape={
            "ratings": served.num_ratings,
            "reviewers": served.num_reviewers,
            "items": served.num_items,
        },
        catalog=catalog,
    )
    probe_items = catalog.popular[-PROBE_ITEMS:]
    reserved = set(probe_items)
    if workload == "cold_explain":
        inputs.cold_streams, inputs.cold_mix = _cold_streams(
            catalog, seed, set(catalog.popular[:WARM_ANCHORS]), reserved
        )
    else:
        inputs.session_titles = _session_titles(catalog, reserved)
        inputs.live_titles = inputs.session_titles[:LIVE_READER_TITLES]
    if workload == "live_ingest":
        writer = RatingWriter(catalog, random.Random(f"{seed}:live-writer"))
        per_server = math.ceil(window_s / BATCH_PERIOD_S)
        batches = writer.batches(
            [item_id for item_id, _ in inputs.live_titles],
            catalog.popular[WARM_ANCHORS:],
            HOT_ROWS_PER_COMPACTION,
            per_server * servers,
        )
        inputs.live_batches = [
            batches[index * per_server:(index + 1) * per_server] for index in range(servers)
        ]
    else:
        probe_writer = RatingWriter(catalog, random.Random(f"{seed}:probe"))
        inputs.probe = probe_writer.batches((), probe_items, 0, PROBE_BATCHES, PROBE_ROWS)
    return inputs


def _stratified(pool: List[Tuple[int, Request]], rng: random.Random) -> Iterator[Request]:
    """Draw a pool of (slice rows, request) evenly across its size strata.

    Every ``STRATA`` draws take one request from each stratum of slice
    sizes (in a seeded order), so any stretch of the stream asks for the
    same mix of small and large selections whatever the seed.
    """
    ordered = sorted(pool, key=lambda entry: (entry[0], entry[1].path))
    strata = [ordered[i * len(ordered) // STRATA:(i + 1) * len(ordered) // STRATA] for i in range(STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    while any(strata):
        order = list(range(STRATA))
        rng.shuffle(order)
        for index in order:
            if strata[index]:
                yield strata[index].pop()[1]


def _cold_streams(
    catalog: Catalog, seed: int, anchors: Set[int], reserved: Set[int]
) -> Tuple[List[List[Request]], Dict[str, int]]:
    """Distinct, minable, never-warm selections of four kinds, one stream per connection."""
    rng = random.Random(f"{seed}:cold")
    usable = [i for i in catalog.popular if i in catalog.unique_title and i not in reserved]
    pools: Dict[str, List[Tuple[int, Request]]] = {kind: [] for kind in set(COLD_CYCLE)}
    for item_id in usable:
        query = _title_query(catalog.title(item_id))
        if item_id not in anchors and catalog.explain_ok([item_id]):
            pools["title"].append((catalog.count[item_id], _get("explain", q=query)))
        for year in catalog.years:
            if catalog.explain_ok([item_id], year):
                rows = sum(catalog.by_year_state[(item_id, year)].values())
                request = _get("explain", q=query, start_year=str(year), end_year=str(year))
                pools["title_year"].append((rows, request))
        for state in catalog.top_states(item_id)[:GEO_TOP_STATES]:
            if catalog.geo_ok(item_id, state):
                rows = catalog.by_state[item_id][state]
                pools["geo"].append((rows, _get("geo_explain", q=query, region=state)))
    # Query leaves match case-insensitively, so a (director, genre) query
    # selects every item carrying both values in any case.
    selections: Dict[Tuple[str, str], Set[int]] = defaultdict(set)
    spelling: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for item in catalog.items.values():
        for director in item.directors:
            for genre in item.genres:
                key = (director.lower(), genre.lower())
                selections[key].add(item.item_id)
                spelling.setdefault(key, (director, genre))
    seen: Set[Tuple[int, ...]] = set()
    low, high = DIRECTOR_GENRE_ITEMS
    for key in sorted(selections):
        director, genre = spelling[key]
        ids = tuple(sorted(selections[key]))
        if '"' in director + genre:
            continue
        if not low <= len(ids) <= high or ids in seen or reserved.intersection(ids):
            continue
        if catalog.explain_ok(ids):
            seen.add(ids)
            query = f'director:"{director}" AND genre:"{genre}"'
            rows = sum(catalog.count[item_id] for item_id in ids)
            pools["director_genre"].append((rows, _get("explain", q=query)))
    draws = {kind: _stratified(pool, rng) for kind, pool in sorted(pools.items())}
    mix: Counter = Counter()
    streams: List[List[Request]] = [[] for _ in range(2)]
    cycle = 0
    while True:
        kinds = list(COLD_CYCLE)
        rng.shuffle(kinds)
        drawn = [(kind, next(draws[kind], None)) for kind in kinds]
        drawn = [(kind, request) for kind, request in drawn if request is not None]
        if not drawn:
            break
        # Whole cycles alternate between the connections, so both ask for
        # the same mix.
        streams[cycle % 2].extend(request for _, request in drawn)
        mix.update(kind for kind, _ in drawn)
        cycle += 1
    return streams, dict(mix)


def _session_titles(catalog: Catalog, reserved: Set[int]) -> List[Tuple[int, str]]:
    """(item id, top minable state) of every title a session may open, by popularity."""
    titles = []
    for item_id in catalog.popular:
        if item_id not in catalog.unique_title or item_id in reserved:
            continue
        if not catalog.explain_ok([item_id]):
            continue
        state = next(
            (s for s in catalog.top_states(item_id)[:GEO_TOP_STATES] if catalog.geo_ok(item_id, s)),
            None,
        )
        if state is not None:
            titles.append((item_id, state))
    return titles


def session_stream(
    catalog: Catalog, titles: Sequence[Tuple[int, str]], rng: random.Random
) -> Iterator[Request]:
    """Endless seeded sessions; titles Zipf (s = 1) over popularity rank.

    Each block of ``ZIPF_BLOCK`` sessions draws its titles from stratified
    uniforms, so every block visits head and tail in Zipf proportion; one
    session in ``TIMELINE_EVERY`` also asks for the timeline.
    """
    cumulative = []
    total = 0.0
    for rank in range(1, len(titles) + 1):
        total += 1.0 / rank
        cumulative.append(total)
    while True:
        # Stratum k of the block draws a uniform from [k, k + 1) / ZIPF_BLOCK;
        # the timeline sessions are every TIMELINE_EVERY-th stratum, so they
        # too spread evenly from head to tail.
        block = [
            ((k + rng.random()) / ZIPF_BLOCK, k % TIMELINE_EVERY == TIMELINE_EVERY // 2)
            for k in range(ZIPF_BLOCK)
        ]
        rng.shuffle(block)
        for uniform, timeline in block:
            pick = bisect.bisect_left(cumulative, uniform * total)
            item_id, state = titles[min(pick, len(titles) - 1)]
            title = catalog.title(item_id)
            query = _title_query(title)
            yield _get("suggest", prefix=title[:4])
            yield _get("explain", q=query)
            yield _get("choropleth", q=query)
            yield _get("statistics", q=query)
            yield _get("drilldown", q=query)
            yield _get("geo_summary", q=query)
            yield _get("geo_drilldown", q=query, region=state, by="city")
            yield _get("geo_explain", q=query, region=state)
            if timeline:
                yield _get("timeline", q=query)


class RatingWriter:
    """Seeded ingest batches: existing reviewers rate titles they have not rated."""

    def __init__(self, catalog: Catalog, rng: random.Random) -> None:
        self.catalog = catalog
        self.rng = rng
        self.used: Set[Tuple[int, int]] = set()
        self.next_reviewer = max(catalog.reviewer_ids) + 1

    def _unrated_reviewer(self, item_id: int) -> Optional[int]:
        """A reviewer who has not rated ``item_id`` yet (None when all have)."""
        fresh = lambda reviewer_id: (  # noqa: E731 - local predicate
            (reviewer_id, item_id) not in self.catalog.rated
            and (reviewer_id, item_id) not in self.used
        )
        for _ in range(32):
            reviewer_id = self.rng.choice(self.catalog.reviewer_ids)
            if fresh(reviewer_id):
                return reviewer_id
        left = [reviewer_id for reviewer_id in self.catalog.reviewer_ids if fresh(reviewer_id)]
        return self.rng.choice(left) if left else None

    def _entry(self, item_id: int) -> dict:
        rng = self.rng
        low, high = self.catalog.timestamp_range
        entry = {"item_id": item_id, "score": rng.randint(1, 5), "timestamp": rng.randint(low, high)}
        # A title every member has already rated can only gain a new member.
        reviewer_id = self._unrated_reviewer(item_id) if rng.random() >= NEW_REVIEWER_SHARE else None
        if reviewer_id is not None:
            self.used.add((reviewer_id, item_id))
            entry["reviewer_id"] = reviewer_id
            return entry
        model = self.catalog.reviewers[rng.choice(self.catalog.reviewer_ids)]
        entry["reviewer_id"] = self.next_reviewer
        entry["reviewer"] = {
            "gender": model.gender,
            "age": model.age,
            "occupation": model.occupation,
            "zipcode": model.zipcode,
        }
        self.next_reviewer += 1
        return entry

    def batches(
        self,
        hot: Sequence[int],
        cold: Sequence[int],
        hot_per_compaction: int,
        count: int,
        rows: int = BATCH_ROWS,
    ) -> List[Request]:
        """``count`` batches of ``rows`` entries.

        Each compaction period rates ``hot_per_compaction`` distinct ``hot``
        items once; every other row rates a ``cold`` item.  ``hot`` is in
        popularity order: period k draws its items from the k-th of as many
        equal popularity strata as there are periods, and the periods are
        then shuffled.
        """
        rows_per_period = rows * COMPACT_EVERY
        periods = math.ceil(count / COMPACT_EVERY)
        strata = [hot[k * len(hot) // periods:(k + 1) * len(hot) // periods] for k in range(periods)]
        picks = [
            self.rng.sample(list(stratum), min(hot_per_compaction, len(stratum)))
            for stratum in strata
        ]
        self.rng.shuffle(picks)
        batches = []
        hot_slots: Dict[int, int] = {}
        for index in range(count):
            if index % COMPACT_EVERY == 0:
                period_hot = picks[index // COMPACT_EVERY]
                hot_slots = dict(
                    zip(self.rng.sample(range(rows_per_period), len(period_hot)), period_hot)
                )
            base = (index % COMPACT_EVERY) * rows
            entries = [
                self._entry(hot_slots[base + slot])
                if base + slot in hot_slots
                else self._entry(self.rng.choice(cold))
                for slot in range(rows)
            ]
            batches.append(_ingest_request(entries))
        return batches
