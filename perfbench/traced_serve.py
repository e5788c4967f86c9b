"""Traced launcher: ``python perfbench/traced_serve.py serve <deployment flags>``.

Wraps the public entry points of each MapRat layer in span recorders, then
runs the unchanged CLI.  Nothing under ``src/`` is edited: every hook is
installed on the imported classes and modules from here.

A span is ``(id, parent, request, name, start_ns, end_ns, value)``.  The
``request`` id is shared by every span of one HTTP request; it comes from
the client's ``X-Perfbench-Op`` header (``None`` outside requests, e.g. the
start-up warm-up).  ``value`` carries one number a layer reports (rows
sliced, bytes encoded, candidates, solver iterations, queue wait).  Parents
survive the two thread hops of a request: the edge's ``run_in_executor``
(the executor call runs in a copy of the event-loop task's context) and
``MiningWorkerPool.submit`` (each task runs in a copy of the submitter's
context).  Spans are kept in memory and written as JSON to the path in
``$PERFBENCH_SPANS`` when the CLI returns, i.e. after SIGINT has taken the
CLI's ``KeyboardInterrupt`` -> ``server.stop()`` path.
"""

from __future__ import annotations

import asyncio.base_events
import contextvars
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

OP_HEADER = "x-perfbench-op"

_now = time.perf_counter_ns
_ids = itertools.count(1)
_spans: list = []
#: (span id, request id) of the innermost open span.
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: (span id, request id, start) of the edge span open on a connection task.
_edge: contextvars.ContextVar = contextvars.ContextVar("perfbench_edge", default=None)


def _run_span(name, request, measure, fn, args, kwargs):
    parent = _current.get()
    if request is None and parent is not None:
        request = parent[1]
    span_id = next(_ids)
    token = _current.set((span_id, request))
    result = done = None
    start = _now()
    try:
        result = fn(*args, **kwargs)
        done = True
        return result
    finally:
        end = _now()
        _current.reset(token)
        value = measure(args, result) if measure is not None and done else None
        _spans.append((span_id, parent and parent[0], request, name, start, end, value))


def _traced(name, fn, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _run_span(name, None, measure, fn, args, kwargs)

    return wrapper


def _wrap(owner, attribute, name, measure=None):
    setattr(owner, attribute, _traced(name, getattr(owner, attribute), measure))


def _wrap_classmethod(cls, attribute, name):
    function = cls.__dict__[attribute].__func__
    setattr(cls, attribute, classmethod(_traced(name, function)))


def _install() -> None:
    from repro import cli
    from repro.core import explanation, rhe
    from repro.core.cube import CandidateEnumerator
    from repro.core.miner import RatingMiner
    from repro.data import durability, ingest, storage
    from repro.explore.drilldown import DrillDown
    from repro.explore.timeline import TimelineExplorer
    from repro.geo.explorer import GeoExplorer, GeoMiningResult
    from repro.query.engine import QueryEngine
    from repro.server import api, asyncapi, cache, http_common, pool, precompute, recovery

    # Edge: one span per request from the parsed head to the written response.
    router = http_common.RequestRouter
    ops_response = router.ops_response

    def open_edge(self, request):
        span_id = next(_ids)
        op = request.headers.get(OP_HEADER)
        _edge.set((span_id, op, _now()))
        _current.set((span_id, op))
        return ops_response(self, request)

    router.ops_response = open_edge
    write_response = asyncapi.AsyncMapRatHttpServer._write_response

    async def close_edge(self, writer, response, keep_alive):
        try:
            await write_response(self, writer, response, keep_alive)
        finally:
            edge = _edge.get()
            if edge is not None:
                _edge.set(None)
                _current.set(None)
                span_id, op, start = edge
                _spans.append((span_id, None, op, "server.asyncapi.request", start, _now(), None))

    asyncapi.AsyncMapRatHttpServer._write_response = close_edge
    run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def run_in_context(self, executor, func, *args):
        return run_in_executor(self, executor, contextvars.copy_context().run, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = run_in_context

    handle = router.handle

    def traced_handle(self, request):
        return _run_span(
            "server.http_common.handle",
            request.headers.get(OP_HEADER),
            None,
            handle,
            (self, request),
            {},
        )

    router.handle = traced_handle
    http_common.json_dumps = _traced(
        "server.http_common.encode", http_common.json_dumps, lambda args, out: len(out)
    )

    # Mining pool: the task span records its queue wait and keeps its parent.
    submit = pool.MiningWorkerPool.submit

    def traced_submit(self, fn, *args, **kwargs):
        context = contextvars.copy_context()
        queued = _now()

        def task(*task_args, **task_kwargs):
            started = _now()
            return context.run(
                _run_span,
                "server.pool.task",
                None,
                lambda _args, _result: started - queued,
                fn,
                task_args,
                task_kwargs,
            )

        return submit(self, task, *args, **kwargs)

    pool.MiningWorkerPool.submit = traced_submit

    _wrap(cache.ResultCache, "get_or_compute", "server.cache.get_or_compute")
    _wrap(QueryEngine, "compile", "query.compile")
    _wrap(QueryEngine, "matching_item_ids", "query.matching_item_ids")
    _wrap(QueryEngine, "suggest_titles", "query.suggest_titles")
    rows = lambda args, result: len(result)  # noqa: E731 - span measure
    _wrap(storage.RatingStore, "slice_for_items", "data.storage.slice", rows)
    _wrap(storage.RatingSlice, "restrict", "data.storage.slice", rows)
    _wrap(
        CandidateEnumerator,
        "enumerate_with_stats",
        "core.cube.enumerate",
        lambda args, result: result[1].candidates,
    )
    _wrap(RatingMiner, "explain_items", "core.miner.mine")
    _wrap(
        rhe.RandomizedHillExploration,
        "solve",
        "core.rhe.solve",
        lambda args, result: result.iterations,
    )
    _wrap_classmethod(explanation.Explanation, "from_solve_result", "core.explanation.assemble")
    _wrap(explanation.MiningResult, "to_dict", "core.explanation.assemble")
    _wrap(GeoMiningResult, "to_dict", "core.explanation.assemble")
    _wrap(GeoExplorer, "explain_region", "geo.explorer.explain_region")
    _wrap(GeoExplorer, "drilldown", "geo.explorer.drilldown")
    _wrap(GeoExplorer, "summary", "geo.explorer.summary")
    _wrap(TimelineExplorer, "interpretations_by_year", "explore.timeline")
    _wrap(api, "group_statistics", "explore.stats")
    _wrap(DrillDown, "drill", "explore.stats")
    _wrap(api, "render_explanation_map", "viz.choropleth")
    _wrap(
        ingest.LiveStore,
        "ingest_batch",
        "data.ingest.batch",
        lambda args, result: len(args[1]),
    )
    _wrap(ingest.LiveStore, "compact", "data.ingest.compact")
    _wrap(durability.WriteAheadLog, "append", "data.durability.wal")
    _wrap(durability.WriteAheadLog, "commit", "data.durability.wal")
    _wrap(
        recovery.DurabilityController,
        "write_snapshot",
        "data.durability.snapshot",
        lambda args, result: result["bytes"],
    )
    _wrap(api.MapRat, "compact", "server.api.compact")
    _wrap(api.MapRat, "explain_items", "server.api.anchor")
    _wrap(api.MapRat, "geo_explain_items", "server.api.anchor")
    _wrap(cli, "load_movielens_directory", "setup.load")
    _wrap(storage.RatingStore, "__init__", "setup.store_build")
    _wrap(precompute.Precomputer, "warm_popular_items", "setup.warmup")


def _write(path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(_spans))
    tmp.replace(path)


def main() -> int:
    spans_path = Path(os.environ["PERFBENCH_SPANS"])
    _install()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        _write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
