"""Process-backend benchmark: cold mining throughput, serial vs thread vs process.

The mining kernel holds the GIL for most of its time, so extra threads add
no mining throughput; ``ServerConfig.mining_backend="process"`` mines on
worker processes instead.  This benchmark measures all three execution modes
on one workload:

* a synthetic 2,400-reviewer x 300-movie dataset (~135k ratings), on which
  one anchor's SM + DM costs tens of milliseconds — the grain the process
  pool must amortise its IPC over,
* ``ANCHORS`` distinct popular items, each explained **cold** (``use_cache=
  False`` isolates mining throughput from the result cache),
* a closed-loop driver with ``clients`` threads pulling anchors off one
  queue (deterministic order via ``split_seed`` shuffling), run against
  three modes of the same system: **serial** (``workers=0``), **thread**
  (``workers=N``) and **process** (``workers=N``).

Bit-identity across the three modes is asserted on the first anchor's full
response before any timing is recorded.  Results go to ``BENCH_procs.json``
together with the host (CPU count, git sha); its ``interpretation`` states
the speed-ups that run measured, on that host and no other.

Run the writer (from the repository root)::

    python benchmarks/bench_procs.py            # writes BENCH_procs.json
    python benchmarks/bench_procs.py --quick    # smaller load, same shape
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from pathlib import Path

# Make the src layout importable when the package is not installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from _record import environment

from repro.config import MiningConfig, PipelineConfig, ServerConfig
from repro.data.synthetic import SyntheticConfig, SyntheticMovieLens
from repro.server.api import MapRat
from repro.server.pool import split_seed

MINING_CONFIG = MiningConfig(max_groups=3, min_coverage=0.25, rhe_restarts=6)
BASE_SEED = 2012
DATASET_CONFIG = SyntheticConfig(
    num_reviewers=2400, num_movies=300, ratings_per_reviewer=50, seed=5
)


def build_dataset():
    return SyntheticMovieLens(DATASET_CONFIG).generate(name="bench-procs")


def build_system(dataset, backend: str, workers: int) -> MapRat:
    config = PipelineConfig(
        mining=MINING_CONFIG,
        server=ServerConfig(mining_backend=backend, mining_workers=workers),
    )
    return MapRat.for_dataset(dataset, config)


def normalized(payload: dict) -> dict:
    payload = json.loads(json.dumps(payload))

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_seconds"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(payload)


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def drive(system: MapRat, anchors, clients: int) -> dict:
    """Closed loop: ``clients`` threads drain the anchor queue, mining cold."""
    order = list(anchors)
    random.Random(split_seed(BASE_SEED, 0)).shuffle(order)
    queue = list(order)
    lock = threading.Lock()
    latencies = []

    def worker() -> None:
        while True:
            with lock:
                if not queue:
                    return
                item_ids = queue.pop()
            started = time.perf_counter()
            system.explain_items(item_ids, use_cache=False)
            latency = time.perf_counter() - started
            with lock:
                latencies.append(latency)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies.sort()
    return {
        "anchors": len(anchors),
        "clients": clients,
        "elapsed_seconds": round(elapsed, 4),
        "explains_per_second": round(len(anchors) / elapsed, 2) if elapsed else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 2),
        "p95_ms": round(percentile(latencies, 0.95) * 1000, 2),
    }


def run(quick: bool) -> dict:
    workers = max(2, min(4, os.cpu_count() or 1))
    clients = workers * 2
    num_anchors = 6 if quick else 24
    dataset = build_dataset()

    modes = {
        "serial": ("thread", 0),
        "thread": ("thread", workers),
        "process": ("process", workers),
    }
    results: dict = {}
    fingerprints = {}
    for mode, (backend, mode_workers) in modes.items():
        started = time.perf_counter()
        system = build_system(dataset, backend, mode_workers)
        try:
            anchors = [
                [aggregate.item_id]
                for aggregate in system.precomputer.top_items(limit=num_anchors)
            ]
            startup = time.perf_counter() - started
            fingerprints[mode] = normalized(
                system.explain_items(anchors[0], use_cache=False).to_dict()
            )
            measured = drive(system, anchors, clients)
            measured["startup_seconds"] = round(startup, 4)
            measured["backend"] = backend
            measured["workers"] = mode_workers
            results[mode] = measured
        finally:
            system.close()

    assert fingerprints["thread"] == fingerprints["serial"], "thread != serial"
    assert fingerprints["process"] == fingerprints["serial"], "process != serial"

    def speedup(numerator: str, denominator: str) -> float:
        slow = results[numerator]["elapsed_seconds"]
        fast = results[denominator]["elapsed_seconds"]
        return round(slow / fast, 2) if fast else 0.0

    host = environment()
    speedups = {
        "speedup_thread_vs_serial": speedup("serial", "thread"),
        "speedup_process_vs_thread": speedup("thread", "process"),
        "speedup_process_vs_serial": speedup("serial", "process"),
    }
    return {
        "benchmark": "process-parallel mining backend (cold explain_items fan-out)",
        "workload": {
            "dataset": {
                "reviewers": DATASET_CONFIG.num_reviewers,
                "movies": DATASET_CONFIG.num_movies,
                "ratings": dataset.num_ratings,
            },
            "mining": {
                "max_groups": MINING_CONFIG.max_groups,
                "min_coverage": MINING_CONFIG.min_coverage,
                "rhe_restarts": MINING_CONFIG.rhe_restarts,
            },
            "anchors": num_anchors,
            "clients": clients,
            "cache": "off (cold mining isolates backend throughput)",
        },
        "environment": host,
        "modes": results,
        "bit_identical": True,
        **speedups,
        "interpretation": (
            f"On this {host['cpu_count']}-CPU host, {clients} clients mining "
            f"{num_anchors} anchors cold: thread mode ({workers} workers) ran "
            f"at {speedups['speedup_thread_vs_serial']}x the throughput of "
            f"serial, and the process backend ({workers} workers) at "
            f"{speedups['speedup_process_vs_serial']}x of serial and "
            f"{speedups['speedup_process_vs_thread']}x of thread mode."
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller load, same shape")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_procs.json",
    )
    args = parser.parse_args()
    report = run(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
