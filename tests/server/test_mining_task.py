"""One mining task per request: one enumeration, one pool task, one deadline.

Every in-process SM + DM pair goes through ``RatingMiner.mine_pair``, which
enumerates the candidate cube once and solves SM then DM over the same
groups.  These tests count ``CandidateEnumerator.enumerate_with_stats`` calls
and ``MiningWorkerPool.tasks_submitted`` on each mining path, and check that
the thread backend's ``mining_timeout_s`` bounds the whole pair.  A timeline
year is one explain read: cached under the key of
``explain?start_year=Y&end_year=Y``, single-flight, one pool task, and the
years share one deadline.
"""

import sys
import threading
import time

import pytest

from repro.config import PipelineConfig, ServerConfig
from repro.core.cube import CandidateEnumerator
from repro.core.miner import RatingMiner
from repro.errors import MiningTimeoutError, ServerError
from repro.explore.timeline import TimelineExplorer
from repro.geo.explorer import GeoExplorer
from repro.query.engine import TimeInterval
from repro.server.api import JsonApi, MapRat
from repro.server.pool import MiningWorkerPool

TOY_STORY = 'title:"Toy Story"'


class _Counter:
    def __init__(self) -> None:
        self.calls = 0
        self.lock = threading.Lock()


@pytest.fixture()
def enumerations(monkeypatch):
    """Counts candidate enumerations, from any thread."""
    counter = _Counter()
    original = CandidateEnumerator.enumerate_with_stats

    def counting(self):
        with counter.lock:
            counter.calls += 1
        return original(self)

    monkeypatch.setattr(CandidateEnumerator, "enumerate_with_stats", counting)
    return counter


@pytest.fixture()
def toy_story_ids(tiny_dataset):
    return [item.item_id for item in tiny_dataset.items_by_title("Toy Story")]


def _system(dataset, mining_config, **server):
    config = PipelineConfig(mining=mining_config, server=ServerConfig(**server))
    return MapRat(dataset, config)


class TestOneEnumerationPerPair:
    def test_explain_items_inline(self, tiny_miner, toy_story_ids, enumerations):
        tiny_miner.explain_items(toy_story_ids)
        assert enumerations.calls == 1

    def test_explain_items_on_a_thread_pool(
        self, tiny_miner, toy_story_ids, enumerations
    ):
        with MiningWorkerPool(4) as pool:
            tiny_miner.explain_items(toy_story_ids, pool=pool)
            assert pool.tasks_submitted == 1
        assert enumerations.calls == 1

    def test_explain_region(self, tiny_miner, toy_story_ids, enumerations):
        explorer = GeoExplorer(tiny_miner)
        explorer.explain_region(toy_story_ids, "CA")
        assert enumerations.calls == 1
        with MiningWorkerPool(4) as pool:
            explorer.explain_region(toy_story_ids, "CA", pool=pool)
            assert pool.tasks_submitted == 1
        assert enumerations.calls == 2

    def test_one_mined_timeline_year(self, tiny_miner, toy_story_ids, enumerations):
        timeline = TimelineExplorer(tiny_miner)
        year = timeline.available_years(toy_story_ids)[0]
        (mined,) = timeline.interpretations_by_year(
            toy_story_ids, years=[year], min_ratings=1
        )
        assert mined.result is not None
        assert enumerations.calls == 1

    def test_one_warm_up_anchor(self, tiny_dataset, mining_config, enumerations):
        with _system(tiny_dataset, mining_config, mining_workers=4) as system:
            assert not system.warm_pool.parallel  # inline on the thread backend
            report = system.warm_up(limit=1)
            assert report["results_precomputed"] == 1
            assert system.pool.tasks_submitted == 0  # never the request pool
        assert enumerations.calls == 1


class TestOnePoolTaskPerColdExplain:
    def test_cold_explain_is_one_task(self, tiny_dataset, mining_config, enumerations):
        with _system(tiny_dataset, mining_config, mining_workers=4) as system:
            assert system.pool.parallel
            system.explain(TOY_STORY)
            assert (system.pool.tasks_submitted, enumerations.calls) == (1, 1)
            system.explain(TOY_STORY)  # a cache hit mines nothing
            assert (system.pool.tasks_submitted, enumerations.calls) == (1, 1)
            system.geo_explain(TOY_STORY, "CA")
            assert (system.pool.tasks_submitted, enumerations.calls) == (2, 2)


class TestDeadlineBoundsThePair:
    DEADLINE_S = 0.2
    HALF_S = 0.15  # each half fits the deadline; the pair does not

    def test_one_deadline_for_sm_plus_dm(
        self, tiny_dataset, mining_config, monkeypatch
    ):
        finished = threading.Event()

        def overrunning_pair(self, rating_slice, config=None):
            time.sleep(TestDeadlineBoundsThePair.HALF_S)  # "SM"
            time.sleep(TestDeadlineBoundsThePair.HALF_S)  # "DM"
            finished.set()
            raise AssertionError("the request stopped waiting before this")

        monkeypatch.setattr(RatingMiner, "mine_pair", overrunning_pair)
        with _system(
            tiny_dataset,
            mining_config,
            mining_workers=2,
            mining_timeout_s=self.DEADLINE_S,
        ) as system:
            started = time.perf_counter()
            with pytest.raises(MiningTimeoutError, match="0.2s deadline"):
                system.explain(TOY_STORY)
            elapsed = time.perf_counter() - started
            assert not finished.is_set()  # raised before the pair could finish
            assert elapsed >= self.DEADLINE_S
            assert system.pool.tasks_submitted == 1

            with pytest.raises(ServerError) as excinfo:
                JsonApi(system).dispatch("explain", {"q": TOY_STORY})
            assert excinfo.value.status == 503


def _mined_years(slices):
    return [s.year for s in slices if s.result is not None]


class TestTimelineYearsAreExplainReads:
    def test_one_pool_task_per_uncached_year(
        self, tiny_dataset, mining_config, enumerations
    ):
        with _system(tiny_dataset, mining_config, mining_workers=4) as system:
            years = _mined_years(system.timeline(TOY_STORY, min_ratings=1))
            assert len(years) == 4
            assert (system.pool.tasks_submitted, enumerations.calls) == (4, 4)
            repeated = system.timeline(TOY_STORY, min_ratings=1)
            assert _mined_years(repeated) == years  # a repeat mines nothing
            assert (system.pool.tasks_submitted, enumerations.calls) == (4, 4)
            assert system.cache.stats.hits == 4

    def test_a_year_and_its_explain_share_one_entry(
        self, tiny_dataset, mining_config, enumerations
    ):
        with _system(tiny_dataset, mining_config, mining_workers=4) as system:
            api = JsonApi(system)
            explained = api.dispatch(
                "explain", {"q": TOY_STORY, "start_year": "2001", "end_year": "2001"}
            )
            assert system.pool.tasks_submitted == 1
            slices = system.timeline(TOY_STORY, years=[2001, 2002], min_ratings=1)
            assert system.pool.tasks_submitted == 2  # 2001 came from the explain
            year_2001 = slices[0].result.to_dict()
            assert year_2001["query"]["description"] == "year 2001"
            assert year_2001["similarity"] == explained["similarity"]
            # ... and the reverse: the explain of a timeline year mines nothing.
            again = system.explain(TOY_STORY, TimeInterval.for_year(2002))
            assert system.pool.tasks_submitted == enumerations.calls == 2
            assert again.similarity is slices[1].result.similarity
            assert again.query.description.startswith(TOY_STORY)

    def test_concurrent_timelines_mine_each_year_once(
        self, tiny_dataset, mining_config, enumerations
    ):
        with _system(tiny_dataset, mining_config, mining_workers=4) as system:
            start = threading.Barrier(4)
            answers = []

            def ask():
                start.wait()
                answers.append(system.timeline(TOY_STORY, min_ratings=1))

            threads = [threading.Thread(target=ask) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(answers) == 4
            assert all(_mined_years(answer) == _mined_years(answers[0]) for answer in answers)
            assert system.pool.tasks_submitted == enumerations.calls == 4


class TestTimelineDeadline:
    DEADLINE_S = 0.2
    YEAR_S = 0.15  # one year fits the deadline; four do not

    def test_the_years_share_one_deadline(
        self, tiny_dataset, mining_config, monkeypatch
    ):
        mine_pair = RatingMiner.mine_pair

        def slow_year(self, rating_slice, config=None):
            time.sleep(TestTimelineDeadline.YEAR_S)
            return mine_pair(self, rating_slice, config)

        monkeypatch.setattr(RatingMiner, "mine_pair", slow_year)
        with _system(
            tiny_dataset,
            mining_config,
            mining_workers=2,
            mining_timeout_s=self.DEADLINE_S,
        ) as system:
            started = time.perf_counter()
            with pytest.raises(ServerError) as excinfo:
                JsonApi(system).dispatch("timeline", {"q": TOY_STORY, "min_ratings": "1"})
            elapsed = time.perf_counter() - started
            assert excinfo.value.status == 503
            assert "0.2s deadline" in str(excinfo.value)
            assert elapsed < 0.45
            # Year 2 cannot end before 0.3 s, so year 3 never starts.
            assert system.pool.tasks_submitted <= 2
