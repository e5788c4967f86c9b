"""MapRat end-to-end benchmark over the deployed HTTP server.

Usage (from the root of a MapRat checkout)::

    python3 perfbench/run.py --workload cold_explain --seed 1 --seconds 16 --trace 0

The client generates the dataset (the ``medium`` synthetic preset: 2,000
reviewers x 900 movies, ~136k ratings, in MovieLens ``.dat`` format) and
``--seed`` generates every request stream; ``workloads.py`` says why each
workload exists and why the dataset's own seed is fixed.  The
run launches ``python -m repro serve`` twice, one after the other, on the
same inputs: each server is set up from scratch (``setup_s`` is the median
of the two set-ups), then driven over two keep-alive connections for half
of ``--seconds``.  On the read workloads both servers get identical request
streams, so their answers must agree response for response; on
``live_ingest`` each server gets its own writer stream.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the first server untraced and the second under
``traced_serve.py`` and prints the per-layer metrics of the traced one;
``trace.overhead_pct`` compares the two servers' median read latency.

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``correct`` is false when any output check fails or the run did not
exercise its workload's mechanism (``cold_explain``: cache misses equal
reads; ``map_session``: the cache evicts and its hit ratio lies strictly
between 0 and 1; ``live_ingest``: the writer's lateness and every
compaction stay inside one compaction period).

The line before it is the run's record: environment (cpu count, Python,
numpy, git sha, seed), dataset shape, connection count, sample counts,
writer lateness, output checks, the mechanism each workload is built to
exercise, the response digest and, on a traced run, the layer times that
only some workloads reach.  Everything the run writes lives in a
``.perfbench-*`` directory of the checkout that is removed at exit, except
the generated dataset, which a checkout's first run leaves in
``.perfbench-dataset`` for the later ones; every server process is stopped
(or killed, on failure) before the run returns.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import workloads
from client import (
    BenchmarkError,
    Connection,
    Op,
    ServerProcess,
    cache_counters,
    closed_loop,
    scheduled_writer,
    write_probe,
)
from layers import PER_LAYER, WORKLOAD_LAYER, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
LAUNCHES = 2
CONNECTIONS = 2
#: Responses per connection folded into the run's digest.  A timed window
#: completes a varying number of reads, so the digest covers this fixed
#: prefix of each stream (finished after the window if a slow run fell short).
DIGEST_PREFIX = 40
THREAD_GRACE_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("mem_mb", "MiB"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_rps", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("compact_p50_ms", "ms"),
)

#: Top-level keys every successful response of an endpoint must carry.
EXPECTED_KEYS = {
    "explain": {"query", "similarity", "diversity", "config"},
    "geo_explain": {"region", "region_stats", "baseline_average", "similarity", "diversity"},
    "suggest": {"titles"},
    "choropleth": {"description", "task", "groups", "svg"},
    "statistics": {"label", "size", "mean", "histogram", "lift"},
    "drilldown": {"aggregates"},
    "geo_summary": {"level", "num_ratings", "average", "regions"},
    "geo_drilldown": {"region", "by", "regions"},
    "timeline": {"slices"},
    "ingest_batch": {"accepted", "duplicates", "epoch", "buffered"},
    "compact": {"compacted", "epoch", "carried_entries", "invalidated_entries", "rewarmed"},
}


@dataclass
class Launch:
    """Everything measured on one server."""

    index: int
    traced: bool
    setup_s: float = 0.0
    warm_report: dict = field(default_factory=dict)
    mem_mib: float = 0.0
    reads: List[Op] = field(default_factory=list)
    read_seconds: float = 0.0
    writes: List[Op] = field(default_factory=list)
    #: Reads sent after the window only to complete the digest prefix.
    fill: List[Op] = field(default_factory=list)
    #: Per connection, every answered read in stream order (window + fill).
    answers: List[List[Op]] = field(default_factory=list)
    cache_delta: Dict[str, int] = field(default_factory=dict)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def timed(self) -> List[Op]:
        return self.reads + self.writes


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _run_threads(jobs: List[Callable[[], List[Op]]], timeout: float) -> List[List[Op]]:
    results: List[Optional[List[Op]]] = [None] * len(jobs)
    errors: List[BaseException] = []

    def run(slot: int, job: Callable[[], List[Op]]) -> None:
        try:
            results[slot] = job()
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot, job), daemon=True)
        for slot, job in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads) or any(r is None for r in results):
        raise BenchmarkError("a connection did not finish its window in time")
    return results  # type: ignore[return-value]


def _read_streams(inputs: workloads.Inputs, workload: str) -> List:
    catalog = inputs.catalog
    if workload == "cold_explain":
        return [iter(stream) for stream in inputs.cold_streams]
    if workload == "map_session":
        return [
            workloads.session_stream(
                catalog, inputs.session_titles, random.Random(f"{inputs.seed}:session:{c}")
            )
            for c in range(CONNECTIONS)
        ]
    return [
        workloads.session_stream(
            catalog, inputs.live_titles, random.Random(f"{inputs.seed}:live-reader")
        )
    ]


def run_launch(
    inputs: workloads.Inputs,
    workload: str,
    index: int,
    window_s: float,
    traced: bool,
    work: Path,
    servers: List[ServerProcess],
) -> Launch:
    durable = work / f"data-dir-{index}" if workload == "live_ingest" else None
    spans_path = work / f"spans-{index}.json" if traced else None
    server = ServerProcess(ROOT, inputs.data_dir, work / f"server-{index}.log", durable, spans_path)
    servers.append(server)
    launch = Launch(index=index, traced=traced)
    launch.setup_s = server.start()
    launch.warm_report = server.warm_report
    control = Connection(server.port)
    conns = [Connection(server.port) for _ in range(CONNECTIONS)]
    try:
        launch.stats_before = control.get_json("/api/store_stats")
        before = cache_counters(control)
        streams = _read_streams(inputs, workload)
        start = time.perf_counter()
        deadline = start + window_s
        if workload == "live_ingest":
            jobs = [
                lambda: scheduled_writer(conns[0], inputs.live_batches[index], start, deadline, "w"),
                lambda: closed_loop(conns[1], streams[0], deadline, "r1."),
            ]
        else:
            jobs = [
                (lambda c: lambda: closed_loop(conns[c], streams[c], deadline, f"r{c}."))(c)
                for c in range(CONNECTIONS)
            ]
        results = _run_threads(jobs, window_s + THREAD_GRACE_S)
        finished = time.perf_counter()
        after = cache_counters(control)
        launch.cache_delta = {name: after[name] - before.get(name, 0) for name in after}
        launch.mem_mib = server.pss_mib()
        if workload == "live_ingest":
            launch.writes, launch.reads = results
        else:
            launch.reads = [op for ops in results for op in ops]
        last = max((op.sent_at + op.seconds for op in launch.reads), default=finished)
        launch.read_seconds = last - start
        if workload != "live_ingest":
            for c, ops in enumerate(results):
                answered = list(ops)
                while len(answered) < DIGEST_PREFIX:
                    request = next(streams[c], None)
                    if request is None:
                        break
                    answered.append(conns[c].call(request, f"f{c}.{len(answered)}", len(answered)))
                    launch.fill.append(answered[-1])
                launch.answers.append(answered)
            launch.writes = write_probe(conns[0], inputs.probe, "p")
        launch.stats_after = control.get_json("/api/store_stats")
    finally:
        control.close()
        for conn in conns:
            conn.close()
    server.stop()
    if spans_path is not None:
        launch.spans = json.loads(spans_path.read_text())
    return launch


# -- output checks ------------------------------------------------------------------------


def _stable(payload):
    if isinstance(payload, dict):
        return {k: _stable(v) for k, v in payload.items() if k != "elapsed_seconds"}
    if isinstance(payload, list):
        return [_stable(v) for v in payload]
    return payload


def _check_op(op: Op) -> Optional[str]:
    """Why ``op`` failed, or None; parses and remembers its JSON payload."""
    if op.status is None:
        return "connection dropped"
    if op.status != 200:
        return f"HTTP {op.status}: {op.payload[:200]!r}"
    try:
        body = json.loads(op.payload)
    except ValueError:
        return "response is not JSON"
    if not isinstance(body, dict):
        return "response is not a JSON object"
    op.body = body
    missing = EXPECTED_KEYS[op.request.endpoint] - set(body)
    if missing:
        return f"missing keys {sorted(missing)}"
    if op.request.endpoint == "ingest_batch":
        if body["accepted"] != op.request.rows or body["duplicates"]:
            return f"batch of {op.request.rows} acknowledged as {body}"
    if op.request.endpoint == "compact" and not body["compacted"]:
        return "compaction did not compact"
    return None


def _response_hash(op: Op) -> str:
    canonical = json.dumps(_stable(op.body), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _check_store(launch: Launch) -> Optional[str]:
    """The final ``store_stats`` against what the writer had acknowledged."""
    sent = compacted = new_compacted = new_sent = compactions = 0
    for op in launch.writes:
        if op.status != 200:
            continue
        if op.request.endpoint == "ingest_batch":
            sent += op.request.rows
            new_sent += op.request.new_reviewers
        elif op.body and op.body.get("compacted"):
            compactions += 1
            compacted, new_compacted = sent, new_sent
    before, after = launch.stats_before, launch.stats_after
    expected = {
        "rows": before["rows"] + compacted,
        "accepted_total": before["accepted_total"] + sent,
        "epoch": before["epoch"] + compactions,
        "buffered": sent - compacted,
        "reviewers": before["reviewers"] + new_compacted,
    }
    wrong = {k: (after[k], v) for k, v in expected.items() if after[k] != v}
    return f"store_stats (got, expected): {wrong}" if wrong else None


def check(launches: List[Launch], workload: str) -> dict:
    """Every check of the run: its outputs and its workload's mechanism.

    Failed operations are counted one by one; ``problems`` holds the
    run-level output checks and ``mechanism["failed"]`` names each
    mechanism flag that did not hold.  Any of them makes the run incorrect.
    """
    failures: List[str] = []
    failed = 0
    for launch in launches:
        for op in launch.timed + launch.fill:
            problem = _check_op(op)
            if problem is not None:
                failed += 1
                failures.append(f"{op.request.endpoint} {op.op_id}: {problem}")
    problems = []
    for launch in launches:
        problem = _check_store(launch)
        if problem is not None:
            problems.append(f"server {launch.index}: {problem}")
    digest = None
    if workload != "live_ingest":
        # The two servers answered identical streams: compare response by
        # response wherever both got that far, and fold a fixed prefix of
        # every connection's stream into the run's digest.
        answers = [
            {
                (c, op.index): (op.request.path, _response_hash(op))
                for c, ops in enumerate(launch.answers)
                for op in ops
                if op.body is not None
            }
            for launch in launches
        ]
        shared = set(answers[0]).intersection(*answers[1:])
        differing = [key for key in shared if any(a[key] != answers[0][key] for a in answers[1:])]
        if differing:
            problems.append(f"{len(differing)} responses differ between the two servers")
        prefix = sorted(
            f"{path} {answer}"
            for (_, index), (path, answer) in answers[0].items()
            if index < DIGEST_PREFIX
        )
        if len(prefix) != DIGEST_PREFIX * CONNECTIONS:
            problems.append(f"digest prefix holds {len(prefix)} responses")
        digest = hashlib.blake2b("\n".join(prefix).encode("utf-8"), digest_size=16).hexdigest()
    held = mechanism(launches, workload)
    return {
        "failed": failed,
        "problems": problems,
        "failures": failures[:10],
        "digest": digest,
        "mechanism": held,
        "correct": failed == 0 and not problems and not held["failed"],
    }


# -- metrics ------------------------------------------------------------------------------


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e3


def end_to_end(launches: List[Launch]) -> Dict[str, float]:
    reads = [op.seconds for launch in launches for op in launch.reads]
    writes = [op for launch in launches for op in launch.writes]
    batches = [op.seconds for op in writes if op.request.endpoint == "ingest_batch"]
    compactions = [op.seconds for op in writes if op.request.endpoint == "compact"]
    return {
        "setup_s": statistics.median(launch.setup_s for launch in launches),
        "mem_mb": statistics.median(launch.mem_mib for launch in launches),
        "read_p50_ms": _ms(reads, 50),
        "read_p99_ms": _ms(reads, 99),
        "read_rps": len(reads) / sum(launch.read_seconds for launch in launches),
        "ingest_p50_ms": _ms(batches, 50),
        "ingest_p90_ms": _ms(batches, 90),
        "compact_p50_ms": _ms(compactions, 50),
    }


def mechanism(launches: List[Launch], workload: str) -> dict:
    """Whether the run exercised what its workload is built for.

    Holds the figures and one flag per condition; ``failed`` names the
    flags that did not hold.
    """
    hits = sum(launch.cache_delta["hits"] for launch in launches)
    misses = sum(launch.cache_delta["misses"] for launch in launches)
    reads = sum(len(launch.reads) for launch in launches)
    if workload == "cold_explain":
        figures = {"cache_misses": misses, "cache_hits": hits, "reads": reads}
        flags = {
            "misses_equal_reads": all(
                launch.cache_delta["misses"] == len(launch.reads) and not launch.cache_delta["hits"]
                for launch in launches
            )
        }
    elif workload == "map_session":
        evictions = sum(launch.cache_delta["evictions"] for launch in launches)
        ratio = hits / (hits + misses) if hits + misses else 0.0
        figures = {"cache_evictions": evictions, "cache_hit_ratio": round(ratio, 4)}
        flags = {"evicts_and_mixes": evictions > 0 and 0.0 < ratio < 1.0}
    else:
        period = workloads.COMPACT_EVERY * workloads.BATCH_PERIOD_S
        writes = [op for launch in launches for op in launch.writes]
        lateness = [op.lateness for op in writes if op.request.endpoint == "ingest_batch"]
        compactions = [op.seconds for op in writes if op.request.endpoint == "compact"]
        figures = {
            "period_s": period,
            "lateness_p50_ms": round(_ms(lateness, 50), 3),
            "lateness_p99_ms": round(_ms(lateness, 99), 3),
            "lateness_max_ms": round(max(lateness, default=0.0) * 1e3, 3),
            "compact_max_ms": round(max(compactions, default=0.0) * 1e3, 3),
        }
        flags = {
            "lateness_bounded": max(lateness, default=0.0) < period,
            "compactions_inside_period": max(compactions, default=0.0) < period,
        }
    return dict(figures, **flags, failed=[name for name, held in flags.items() if not held])


def per_layer(launches: List[Launch]) -> Dict[str, float]:
    untraced, traced = launches[0], launches[-1]
    metrics = layer_metrics(traced.spans, traced.reads, traced.writes, traced.cache_delta)
    baseline = _ms([op.seconds for op in untraced.reads], 50)
    metrics["trace.overhead_pct"] = 100.0 * (_ms([op.seconds for op in traced.reads], 50) / baseline - 1.0)
    return metrics


def cpu_times() -> List[int]:
    """Aggregate CPU time counters of the machine (``/proc/stat``, in ticks)."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def steal_pct(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor took from this machine between two readings."""
    # user, nice, system, idle, iowait, irq, softirq, steal (guest time is
    # already inside user and nice).
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else 0.0


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def record(args, inputs, launches, checks, workload, steal: float) -> dict:
    import numpy

    def count(endpoint: str) -> int:
        return sum(1 for launch in launches for op in launch.writes if op.request.endpoint == endpoint)

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": _git_sha(),
            "cpu_steal_pct": round(steal, 2),
        },
        "dataset": dict(inputs.shape, preset=workloads.PRESET),
        "connections": CONNECTIONS,
        "servers": [
            {
                "traced": launch.traced,
                "setup_s": round(launch.setup_s, 4),
                "mem_mib": round(launch.mem_mib, 2),
                "reads": len(launch.reads),
                "warm_up": launch.warm_report,
                "cache": launch.cache_delta,
            }
            for launch in launches
        ],
        "samples": {
            "reads": sum(len(launch.reads) for launch in launches),
            "batches": count("ingest_batch"),
            "compactions": count("compact"),
            "digest_fill": sum(len(launch.fill) for launch in launches),
        },
        "cold_mix": inputs.cold_mix if workload == "cold_explain" else None,
        "mechanism": checks["mechanism"],
        "checks": {k: checks[k] for k in ("correct", "failed", "problems", "failures")},
        "digest": checks["digest"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no MapRat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    servers: List[ServerProcess] = []
    started = cpu_times()
    try:
        window = args.seconds / LAUNCHES
        data = workloads.dataset(ROOT / workloads.DATASET_CACHE, work)
        inputs = workloads.prepare(args.workload, args.seed, data, window, LAUNCHES)
        # Client-side collections would pause the connection threads and
        # count as server latency; a run allocates only a few MB.
        gc.collect()
        gc.disable()
        launches = [
            run_launch(inputs, args.workload, index, window, bool(args.trace) and index == LAUNCHES - 1, work, servers)
            for index in range(LAUNCHES)
        ]
        checks = check(launches, args.workload)
        run_record = record(
            args, inputs, launches, checks, args.workload, steal_pct(started, cpu_times())
        )
        if args.trace:
            values = per_layer(launches)
            names = PER_LAYER
            run_record["workload_layers"] = {
                name: {"value": values[name], "unit": unit} for name, unit in WORKLOAD_LAYER
            }
        else:
            values = end_to_end(launches)
            names = END_TO_END
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(launch.timed) + len(launch.fill) for launch in launches)
    print(json.dumps({"perfbench_record": run_record}))
    print(
        json.dumps(
            {
                "correct": checks["correct"],
                "attempted": attempted,
                "failed": checks["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
