#!/usr/bin/env python
"""Process-parallel mining: backend selection and multi-core throughput.

Demonstrates ``ServerConfig.mining_backend``, which picks one of two
backends::

    python examples/process_serving.py

The same MapRat system is built twice — once on the default **thread**
backend (GIL-bound: each request's SM + DM runs as one pool task under the
mining deadline, on one core at a time) and once on the **process** backend,
where each store epoch is exported once into shared memory and persistent
worker processes attach it zero-copy and mine in true parallel.  A small closed-loop driver then explains a set of
popular items cold (cache off) through both systems and reports throughput;
finally one result is compared field-by-field to prove the backends
bit-identical, and a live compaction shows the epoch hand-off (the old
shared segment is retired only after in-flight work drains).

Set ``MAPRAT_SCALE=tiny`` / ``MAPRAT_SMOKE=1`` for the test suite's quick
run.  Expect the process backend to pull ahead of the thread backend only
with several cores and concurrent clients (``benchmarks/bench_procs.py``
measures it; see ``docs/BENCHMARKS.md``); on a single core it mostly
demonstrates the wiring.
"""

import json
import os
import threading
import time

from repro import MapRat, MiningConfig, PipelineConfig, generate_dataset
from repro.config import ServerConfig


def build_system(dataset, backend: str, workers: int) -> MapRat:
    config = PipelineConfig(
        mining=MiningConfig(max_groups=3, min_coverage=0.25, min_group_support=3),
        server=ServerConfig(mining_backend=backend, mining_workers=workers),
    )
    return MapRat.for_dataset(dataset, config)


def drive(system: MapRat, anchors, clients: int) -> float:
    """Explain every anchor cold through ``clients`` closed-loop threads."""
    queue = list(enumerate(anchors))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                if not queue:
                    return
                _, item_ids = queue.pop()
            system.explain_items(item_ids, use_cache=False)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def normalized(payload: dict) -> dict:
    payload = json.loads(json.dumps(payload))

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_seconds"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(payload)


def main() -> None:
    scale = os.environ.get("MAPRAT_SCALE", "small")
    smoke = bool(os.environ.get("MAPRAT_SMOKE"))
    workers = 2 if smoke else max(2, min(4, os.cpu_count() or 1))
    clients = workers * 2
    num_anchors = 4 if smoke else 16

    print(f"Generating the synthetic dataset ({scale} scale)...")
    dataset = generate_dataset(scale)

    elapsed = {}
    results = {}
    for backend in ("thread", "process"):
        system = build_system(dataset, backend, workers)
        try:
            anchors = [
                [aggregate.item_id]
                for aggregate in system.precomputer.top_items(limit=num_anchors)
            ]
            pool_info = system.pool.to_dict()
            print(
                f"\n[{backend}] pool: workers={pool_info['workers']} "
                f"parallel={pool_info['parallel']}"
            )
            elapsed[backend] = drive(system, anchors, clients)
            print(
                f"[{backend}] {len(anchors)} cold explains with {clients} clients: "
                f"{elapsed[backend]:.2f}s "
                f"({len(anchors) / elapsed[backend]:.1f} explains/s)"
            )
            results[backend] = normalized(
                system.explain_items(anchors[0][:1], use_cache=False).to_dict()
            )
            if backend == "process":
                # Live epoch turnover: ingest one rating, compact, keep serving.
                reviewer_id = next(iter(dataset.reviewers())).reviewer_id
                system.ingest(anchors[0][0], reviewer_id, 5.0, timestamp=1_700_000_000)
                compaction = system.compact()
                print(
                    f"[process] compacted into epoch {compaction['epoch']} "
                    f"(mode={compaction['mode']}); "
                    f"live epochs now {system.pool.to_dict()['live_epochs']}"
                )
                system.explain_items(anchors[0][:1], use_cache=False)
        finally:
            system.close()

    assert results["thread"] == results["process"], "backends must be bit-identical"
    speedup = elapsed["thread"] / elapsed["process"] if elapsed["process"] else 0.0
    print(
        f"\nBackends bit-identical; process/thread speedup on this machine "
        f"({os.cpu_count()} core(s)): {speedup:.2f}x"
    )
    print("On >=4 cores the process backend sustains >=2x end-to-end explain "
          "throughput (see docs/BENCHMARKS.md).")


if __name__ == "__main__":
    main()
