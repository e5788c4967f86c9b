"""Per-layer metrics from the spans of one traced server.

Every figure is normalised by the operations of its own path, so a layer
moves only when its own work per operation does:

* read-path layers (edge, router, encoding, cache, query, slicing, cube,
  RHE, assembly, pool, geo, explore, viz) count only the spans of the
  window's reads and are per read - the cache counters too;
* ``data.ingest.rows``, ``data.ingest.batch_ms`` and
  ``data.durability.wal_ms`` are per ingest batch;
  ``data.ingest.compact_ms``, ``data.durability.snapshot_*`` and the
  ``server.api`` re-warm and migration figures are per compaction (on the
  read workloads, batches and compactions of the post-window write probe);
* ``route_ms.<endpoint>`` is the mean ``RequestRouter.handle`` time of that
  endpoint's requests, and ``core.cube.candidates``/``core.rhe.iterations``
  are per enumeration and per solve;
* the set-up figures come from the spans recorded before any request.

Times are self times: a span's duration minus the part of it that its
child spans cover.

``PER_LAYER`` (what ``BENCHMARK.json`` names) is every metric of the layer
table except the layer *times* that some workload never reaches: such a
time would read exactly 0 on every run of that workload, which is no
measurement.  Those times are ``WORKLOAD_LAYER`` and go into the run's
record, for every workload.  Counts, sizes and ratios stay in
``PER_LAYER`` and read 0 where a workload never exercises them:
``data.durability.snapshot_bytes`` on the read workloads (served without
``--data-dir``); ``server.api.rewarm_anchors`` and
``server.api.invalidated_entries`` on the read workloads (their probe rates
only tail items that no read selects); ``server.cache.hits``,
``server.cache.hit_ratio`` and ``explore.timeline_minings`` on
``cold_explain``; ``server.cache.evictions`` on ``live_ingest`` (its
reader's titles fit the cache); and ``server.cache.coalesced`` whenever
the two connections never wait on the same entry at once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("trace.overhead_pct", "%"),
    ("server.asyncapi.overhead_ms", "ms"),
    ("server.http_common.self_ms", "ms"),
    ("server.http_common.encode_ms", "ms"),
    ("server.http_common.encode_bytes", "bytes"),
    ("server.http_common.route_ms.explain", "ms"),
    ("server.http_common.route_ms.geo_explain", "ms"),
    ("server.http_common.route_ms.ingest_batch", "ms"),
    ("server.http_common.route_ms.compact", "ms"),
    ("server.cache.hits", "count"),
    ("server.cache.misses", "count"),
    ("server.cache.coalesced", "count"),
    ("server.cache.evictions", "count"),
    ("server.cache.hit_ratio", "ratio"),
    ("query.calls", "count"),
    ("query.ms", "ms"),
    ("data.storage.slice_rows", "count"),
    ("data.storage.slice_ms", "ms"),
    ("core.cube.enumerations_per_mining", "ratio"),
    ("core.cube.candidates", "count"),
    ("core.cube.enumerate_ms", "ms"),
    ("core.rhe.solves", "count"),
    ("core.rhe.iterations", "count"),
    ("core.rhe.solve_ms", "ms"),
    ("core.explanation.assemble_ms", "ms"),
    ("server.pool.tasks", "count"),
    ("server.pool.wait_ms", "ms"),
    ("server.pool.busy_ms", "ms"),
    ("geo.explorer.calls", "count"),
    ("geo.explorer.ms", "ms"),
    ("explore.timeline_minings", "count"),
    ("data.ingest.rows", "count"),
    ("data.ingest.batch_ms", "ms"),
    ("data.ingest.compact_ms", "ms"),
    ("data.durability.snapshot_bytes", "bytes"),
    ("server.api.rewarm_anchors", "count"),
    ("server.api.carried_entries", "count"),
    ("server.api.invalidated_entries", "count"),
    ("setup.load_ms", "ms"),
    ("setup.store_build_ms", "ms"),
    ("setup.warmup_ms", "ms"),
)

WORKLOAD_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"server.http_common.route_ms.{endpoint}", "ms")
    for endpoint in (
        "suggest", "choropleth", "statistics", "drilldown", "geo_summary", "geo_drilldown", "timeline",
    )
) + (
    ("explore.timeline_ms", "ms"),
    ("explore.stats_ms", "ms"),
    ("viz.choropleth_ms", "ms"),
    ("data.durability.wal_ms", "ms"),
    ("data.durability.snapshot_ms", "ms"),
    ("server.api.rewarm_ms", "ms"),
)

_MS = 1e-6
# Span tuple fields.
_ID, _PARENT, _OP, _NAME, _START, _END, _VALUE = range(7)


def _self_times(spans: Sequence[list]) -> Dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[_PARENT] is not None:
            children[span[_PARENT]].append((span[_START], span[_END]))
    result = {}
    for span in spans:
        start, end = span[_START], span[_END]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span[_ID], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[_ID]] = (end - start) - covered
    return result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Totals:
    """Per span name: how many spans, their self time, duration and values."""

    def __init__(self, spans: Sequence[list], self_ns: Dict[int, int]) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.duration_ns: Dict[str, int] = defaultdict(int)
        self.value: Dict[str, float] = defaultdict(float)
        for span in spans:
            name = span[_NAME]
            self.count[name] += 1
            self.self_ns[name] += self_ns[span[_ID]]
            self.duration_ns[name] += span[_END] - span[_START]
            if span[_VALUE] is not None:
                self.value[name] += span[_VALUE]

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[name] for name in names) * _MS

    def calls(self, *names: str) -> int:
        return sum(self.count[name] for name in names)


def layer_metrics(
    spans: Sequence[list], reads: Sequence, writes: Sequence, cache_delta: Dict[str, int]
) -> Dict[str, float]:
    """Every metric of ``PER_LAYER`` and ``WORKLOAD_LAYER`` except ``trace.overhead_pct``.

    ``reads`` are the window's reads of the traced server and ``writes`` its
    ingest batches and compactions (client ops with ``op_id``, ``seconds``,
    ``request.endpoint`` and, once checked, the parsed ``body``);
    ``cache_delta`` holds the window's ``/metrics`` cache counters.
    """
    self_ns = _self_times(spans)
    by_op = {op.op_id: op for op in list(reads) + list(writes)}
    read_ids = {op.op_id for op in reads}
    batch_ids = {op.op_id for op in writes if op.request.endpoint == "ingest_batch"}
    compact_ops = [op for op in writes if op.request.endpoint == "compact"]
    compact_ids = {op.op_id for op in compact_ops}
    n_reads, n_batches, n_compactions = len(read_ids), len(batch_ids), len(compact_ops)

    read_spans = [span for span in spans if span[_OP] in read_ids]
    read = _Totals(read_spans, self_ns)
    write = _Totals([span for span in spans if span[_OP] in batch_ids | compact_ids], self_ns)

    def per_read_ms(*names: str) -> float:
        return _ratio(read.self_ms(*names), n_reads)

    handle_ms: Dict[str, List[float]] = defaultdict(list)
    overhead = []
    for span in spans:
        op = by_op.get(span[_OP])
        if op is None or span[_NAME] != "server.http_common.handle":
            continue
        seconds = (span[_END] - span[_START]) * 1e-9
        handle_ms[op.request.endpoint].append(seconds * 1e3)
        if op.op_id in read_ids:
            overhead.append((op.seconds - seconds) * 1e3)

    names = {span[_ID]: span[_NAME] for span in spans}
    parents = {span[_ID]: span[_PARENT] for span in spans}

    def under(span: list, ancestor: str) -> bool:
        parent = span[_PARENT]
        while parent is not None:
            if names.get(parent) == ancestor:
                return True
            parent = parents.get(parent)
        return False

    timeline_minings = sum(
        1 for span in read_spans if span[_NAME] == "core.miner.mine" and under(span, "explore.timeline")
    )
    rewarm_ns = sum(
        span[_END] - span[_START]
        for span in spans
        if span[_NAME] == "server.api.anchor" and span[_OP] in compact_ids
    )
    bodies = [op.body for op in compact_ops if isinstance(op.body, dict)]
    setup: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span[_OP] is None and span[_NAME].startswith("setup."):
            setup[span[_NAME]] += span[_END] - span[_START]
    geo = ("geo.explorer.explain_region", "geo.explorer.drilldown", "geo.explorer.summary")
    query = ("query.compile", "query.matching_item_ids", "query.suggest_titles")
    hits, misses = cache_delta["hits"], cache_delta["misses"]

    metrics = {
        "server.asyncapi.overhead_ms": _ratio(sum(overhead), len(overhead)),
        "server.http_common.self_ms": per_read_ms("server.http_common.handle"),
        "server.http_common.encode_ms": per_read_ms("server.http_common.encode"),
        "server.http_common.encode_bytes": _ratio(read.value["server.http_common.encode"], n_reads),
        "server.cache.hits": _ratio(hits, n_reads),
        "server.cache.misses": _ratio(misses, n_reads),
        "server.cache.coalesced": _ratio(cache_delta["coalesced"], n_reads),
        "server.cache.evictions": _ratio(cache_delta["evictions"], n_reads),
        "server.cache.hit_ratio": _ratio(hits, hits + misses),
        "query.calls": _ratio(read.calls(*query), n_reads),
        "query.ms": per_read_ms(*query),
        "data.storage.slice_rows": _ratio(read.value["data.storage.slice"], n_reads),
        "data.storage.slice_ms": per_read_ms("data.storage.slice"),
        "core.cube.enumerations_per_mining": _ratio(
            read.count["core.cube.enumerate"],
            read.calls("core.miner.mine", "geo.explorer.explain_region"),
        ),
        "core.cube.candidates": _ratio(
            read.value["core.cube.enumerate"], read.count["core.cube.enumerate"]
        ),
        "core.cube.enumerate_ms": per_read_ms("core.cube.enumerate"),
        "core.rhe.solves": _ratio(read.count["core.rhe.solve"], n_reads),
        "core.rhe.iterations": _ratio(read.value["core.rhe.solve"], read.count["core.rhe.solve"]),
        "core.rhe.solve_ms": per_read_ms("core.rhe.solve"),
        "core.explanation.assemble_ms": per_read_ms("core.explanation.assemble"),
        "server.pool.tasks": _ratio(read.count["server.pool.task"], n_reads),
        "server.pool.wait_ms": _ratio(read.value["server.pool.task"] * _MS, n_reads),
        "server.pool.busy_ms": _ratio(read.duration_ns["server.pool.task"] * _MS, n_reads),
        "geo.explorer.calls": _ratio(read.calls(*geo), n_reads),
        "geo.explorer.ms": per_read_ms(*geo),
        "explore.timeline_minings": _ratio(timeline_minings, read.count["explore.timeline"]),
        "explore.timeline_ms": per_read_ms("explore.timeline"),
        "explore.stats_ms": per_read_ms("explore.stats"),
        "viz.choropleth_ms": per_read_ms("viz.choropleth"),
        "data.ingest.rows": _ratio(write.value["data.ingest.batch"], write.count["data.ingest.batch"]),
        "data.ingest.batch_ms": _ratio(write.self_ms("data.ingest.batch"), n_batches),
        "data.ingest.compact_ms": _ratio(write.self_ms("data.ingest.compact"), n_compactions),
        "data.durability.wal_ms": _ratio(write.self_ms("data.durability.wal"), n_batches),
        "data.durability.snapshot_ms": _ratio(
            write.self_ms("data.durability.snapshot"), n_compactions
        ),
        "data.durability.snapshot_bytes": _ratio(
            write.value["data.durability.snapshot"], write.count["data.durability.snapshot"]
        ),
        "server.api.rewarm_anchors": _ratio(sum(b["rewarmed"] for b in bodies), len(bodies)),
        "server.api.rewarm_ms": _ratio(rewarm_ns * _MS, n_compactions),
        "server.api.carried_entries": _ratio(
            sum(b["carried_entries"] for b in bodies), len(bodies)
        ),
        "server.api.invalidated_entries": _ratio(
            sum(b["invalidated_entries"] for b in bodies), len(bodies)
        ),
        "setup.load_ms": setup["setup.load"] * _MS,
        "setup.store_build_ms": setup["setup.store_build"] * _MS,
        "setup.warmup_ms": setup["setup.warmup"] * _MS,
    }
    prefix = "server.http_common.route_ms."
    for name, _unit in PER_LAYER + WORKLOAD_LAYER:
        if name.startswith(prefix):
            samples = handle_ms.get(name[len(prefix):], ())
            metrics[name] = _ratio(sum(samples), len(samples))
    return metrics
