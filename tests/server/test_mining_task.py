"""One mining task per request: one enumeration, one pool task, one deadline.

Every in-process SM + DM pair goes through ``RatingMiner.mine_pair``, which
enumerates the candidate cube once and solves SM then DM over the same
groups.  These tests count ``CandidateEnumerator.enumerate_with_stats`` calls
and ``MiningWorkerPool.tasks_submitted`` on each mining path, and check that
the thread backend's ``mining_timeout_s`` bounds the whole pair.
"""

import threading
import time

import pytest

from repro.config import PipelineConfig, ServerConfig
from repro.core.cube import CandidateEnumerator
from repro.core.miner import RatingMiner
from repro.errors import MiningTimeoutError, ServerError
from repro.explore.timeline import TimelineExplorer
from repro.geo.explorer import GeoExplorer
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
