"""Micro-benchmark of the integer-coded mining kernel vs the naive reference.

Measures, on the bench_mri_scalability workload (synthetic MovieLens-shaped
dataset, most-rated-item slices):

* cube enumeration — integer-code/bincount kernel vs boolean-mask DFS,
* RHE solves for Similarity and Diversity Mining — delta-evaluated
  ``SelectionState`` vs full per-trial rebuilds (``use_fast_eval=False``),
* the end-to-end ``mine_pair`` path: one enumeration, then the SM and DM
  solves over the same candidate groups.

Both paths are verified to return identical selections (groups, objective,
iterations, restart trace, feasibility) before timings are recorded, so the
speedup numbers compare equal work.  The script exits non-zero when any
``identical`` field of the record is false, which makes ``--quick`` a
fast == naive check at benchmark scale.

Run the writer (from the repository root)::

    python benchmarks/bench_kernel.py            # writes BENCH_kernel.json
    python benchmarks/bench_kernel.py --quick    # fewer repeats, small scale only

``BENCH_kernel.json`` is the perf trajectory future PRs regress against; it
records the CPU count and git sha of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# Make the src layout importable when the package is not installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy

from repro.config import MiningConfig
from repro.core.cube import CandidateEnumerator
from repro.core.problems import DiversityProblem, SimilarityProblem
from repro.core.rhe import RandomizedHillExploration
from repro.data.storage import RatingStore
from repro.data.synthetic import SyntheticConfig, SyntheticMovieLens

#: The bench_mri_scalability workload configuration.
MINING_CONFIG = MiningConfig(
    max_groups=3, min_coverage=0.25, min_group_support=5, rhe_restarts=4
)
SOLVER_KWARGS = dict(restarts=4, max_iterations=150, seed=3)

#: Scales: dataset shape + how many of the most-rated items form the slice.
SCALES = {
    "small": dict(num_reviewers=1200, num_movies=300, ratings_per_reviewer=50, items=1),
    "medium": dict(num_reviewers=2400, num_movies=300, ratings_per_reviewer=50, items=3),
}


def _best_of(fn, repeats):
    """Minimum wall-clock of ``repeats`` runs (robust against scheduler noise)."""
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return min(times), result


def _build_slice(scale):
    config = SyntheticConfig(
        num_reviewers=scale["num_reviewers"],
        num_movies=scale["num_movies"],
        ratings_per_reviewer=scale["ratings_per_reviewer"],
        seed=5,
    )
    dataset = SyntheticMovieLens(config).generate(name="bench-kernel")
    store = RatingStore(dataset)
    item_ids = [item_id for item_id, _ in store.most_rated_items(limit=scale["items"])]
    return store.slice_for_items(item_ids)


def _enumerate(rating_slice, use_kernel):
    enumerator = CandidateEnumerator.from_config(rating_slice, MINING_CONFIG)
    enumerator.use_kernel = use_kernel
    # Per-run stats (ISSUE 9): the enumerator no longer stores counters, so
    # the benchmark reads them from the same call it times.
    groups, stats = enumerator.enumerate_with_stats()
    return groups, stats


def _solve(problem, use_fast_eval):
    solver = RandomizedHillExploration(use_fast_eval=use_fast_eval, **SOLVER_KWARGS)
    return solver.solve(problem)


def bench_scale(scale, repeats):
    """Benchmark one scale; returns the result record for BENCH_kernel.json."""
    rating_slice = _build_slice(scale)

    kernel_groups, kernel_stats = _enumerate(rating_slice, True)
    naive_groups, naive_stats = _enumerate(rating_slice, False)
    enum_identical = (
        [g.descriptor for g in kernel_groups] == [g.descriptor for g in naive_groups]
        and kernel_stats == naive_stats
    )

    enum_kernel_s, (candidates, stats) = _best_of(
        lambda: _enumerate(rating_slice, True), repeats
    )
    enum_naive_s, _ = _best_of(lambda: _enumerate(rating_slice, False), repeats)

    record = {
        "ratings": len(rating_slice),
        "candidates": len(candidates),
        "enumeration": {
            "kernel_ms": round(enum_kernel_s * 1000, 3),
            "naive_ms": round(enum_naive_s * 1000, 3),
            "speedup": round(enum_naive_s / enum_kernel_s, 2),
            "identical": enum_identical,
            "explored": stats.explored,
            "pruned_by_support": stats.pruned_by_support,
        },
    }

    e2e_fast_s = enum_kernel_s  # mine_pair enumerates once for both solves
    e2e_naive_s = enum_naive_s
    for name, problem_class in (
        ("similarity", SimilarityProblem),
        ("diversity", DiversityProblem),
    ):
        problem = problem_class(rating_slice, candidates, MINING_CONFIG)
        fast_result = _solve(problem, True)
        naive_result = _solve(problem, False)
        identical = (
            [g.descriptor for g in fast_result.groups]
            == [g.descriptor for g in naive_result.groups]
            and fast_result.objective == naive_result.objective
            and fast_result.iterations == naive_result.iterations
            and fast_result.trace == naive_result.trace
            and fast_result.feasible == naive_result.feasible
        )
        fast_s, _ = _best_of(lambda: _solve(problem, True), repeats)
        naive_s, _ = _best_of(lambda: _solve(problem, False), repeats)
        e2e_fast_s += fast_s
        e2e_naive_s += naive_s
        record[name] = {
            "fast_ms": round(fast_s * 1000, 3),
            "naive_ms": round(naive_s * 1000, 3),
            "speedup": round(naive_s / fast_s, 2),
            "objective": round(fast_result.objective, 6),
            "feasible": fast_result.feasible,
            "identical": identical,
        }

    record["end_to_end"] = {
        "fast_ms": round(e2e_fast_s * 1000, 3),
        "naive_ms": round(e2e_naive_s * 1000, 3),
        "speedup": round(e2e_naive_s / e2e_fast_s, 2),
    }
    return record


def _git_sha():
    """HEAD's sha, suffixed ``-dirty`` when tracked files differ from it."""
    root = Path(__file__).resolve().parent.parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _divergent(report):
    """``scale.section`` names whose fast path differs from the naive one."""
    return [
        f"{scale}.{section}"
        for scale, record in report["scales"].items()
        for section, fields in record.items()
        if isinstance(fields, dict) and not fields.get("identical", True)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_kernel.json"),
        help="where to write the JSON record (default: repo-root BENCH_kernel.json)",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument(
        "--quick", action="store_true", help="small scale only, 2 repeats"
    )
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else args.repeats
    scales = {"small": SCALES["small"]} if args.quick else SCALES

    report = {
        "benchmark": "kernel",
        "workload": "bench_mri_scalability (synthetic MovieLens, most-rated-item slices)",
        "solver": SOLVER_KWARGS,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_sha": _git_sha(),
        },
        "scales": {},
    }
    for name, scale in scales.items():
        print(f"[bench_kernel] running scale {name!r} ...", flush=True)
        record = bench_scale(scale, repeats)
        report["scales"][name] = record
        e2e = record["end_to_end"]
        print(
            f"[bench_kernel]   {name}: ratings={record['ratings']} "
            f"candidates={record['candidates']} "
            f"e2e {e2e['naive_ms']:.1f}ms -> {e2e['fast_ms']:.1f}ms "
            f"({e2e['speedup']}x)",
            flush=True,
        )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_kernel] wrote {output}")
    divergent = _divergent(report)
    if divergent:
        print(f"[bench_kernel] fast != naive: {', '.join(divergent)}", file=sys.stderr)
        sys.exit(1)
    return report


if __name__ == "__main__":
    main()
