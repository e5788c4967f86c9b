"""Command-line interface to the MapRat pipeline.

The demo's interactions are also available from the shell, which is handy for
scripting experiments and for exploring a dataset without the HTTP front-end::

    python -m repro generate --scale small --output ml-synthetic/
    python -m repro explain  --query 'title:"Toy Story"' --html figure2.html
    python -m repro explore  --query 'title:"Toy Story"' --group 0
    python -m repro timeline --query 'title:"Drifting Star"'
    python -m repro serve    --port 8912 --warm-up 10

Every subcommand either loads a MovieLens-1M style directory (``--data DIR``)
or generates the synthetic dataset at the requested ``--scale``.  Exit code 0
means success; argument and data errors exit with code 2 and a message on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import MiningConfig, PipelineConfig, ServerConfig
from .data.movielens import load_movielens_directory, write_movielens_directory
from .data.synthetic import SCALE_PRESETS, generate_dataset
from .errors import MapRatError
from .query.engine import TimeInterval
from .server.api import MapRat
from .server.asyncapi import run_server
from .viz.report import ExplanationReport
from .viz.text import render_result_text


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MapRat: meaningful explanation, interactive exploration and "
        "geo-visualization of collaborative ratings (VLDB 2012 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--data",
            type=Path,
            default=None,
            help="MovieLens-1M style directory (users.dat/movies.dat/ratings.dat); "
            "omitted = synthetic data",
        )
        sub.add_argument(
            "--scale",
            choices=sorted(SCALE_PRESETS),
            default="small",
            help="synthetic dataset scale when --data is not given (default: small)",
        )
        sub.add_argument("--seed", type=int, default=None, help="synthetic generator seed")

    def add_mining_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--max-groups", type=int, default=3, help="groups per interpretation")
        sub.add_argument("--coverage", type=float, default=0.25, help="minimum rating coverage")
        sub.add_argument(
            "--min-support",
            type=int,
            default=5,
            help="smallest number of ratings a candidate group may have",
        )
        sub.add_argument(
            "--no-geo-anchor",
            action="store_true",
            help="allow groups without a state condition (not map-renderable)",
        )
        sub.add_argument("--start-year", type=int, default=None, help="restrict mining to years >= this")
        sub.add_argument("--end-year", type=int, default=None, help="restrict mining to years <= this")

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset and export it")
    add_dataset_arguments(generate)
    generate.add_argument("--output", type=Path, required=True, help="directory for the .dat files")

    explain = subparsers.add_parser("explain", help="explain the ratings of a query (Figure 2)")
    add_dataset_arguments(explain)
    add_mining_arguments(explain)
    explain.add_argument("--query", required=True, help='e.g. \'title:"Toy Story"\'')
    explain.add_argument("--html", type=Path, default=None, help="write the Figure-2 HTML report here")
    explain.add_argument("--json", action="store_true", help="print the result as JSON instead of text")

    explore = subparsers.add_parser("explore", help="statistics and drill-down of one group (Figure 3)")
    add_dataset_arguments(explore)
    add_mining_arguments(explore)
    explore.add_argument("--query", required=True)
    explore.add_argument("--task", choices=("similarity", "diversity"), default="similarity")
    explore.add_argument("--group", type=int, default=0, help="index of the group to explore")
    explore.add_argument("--html", type=Path, default=None, help="write the Figure-3 HTML report here")

    timeline = subparsers.add_parser("timeline", help="time-slider view of a query (§3.1)")
    add_dataset_arguments(timeline)
    add_mining_arguments(timeline)
    timeline.add_argument("--query", required=True)
    timeline.add_argument("--min-ratings", type=int, default=20)

    serve = subparsers.add_parser("serve", help="run the HTTP front-end")
    add_dataset_arguments(serve)
    add_mining_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8912)
    serve.add_argument("--warm-up", type=int, default=0, help="pre-compute this many popular items")
    serve.add_argument(
        "--mining-backend",
        choices=("thread", "process"),
        default="thread",
        help="mine on a thread pool (default; GIL-bound, one SM + DM task "
        "per request) or across worker processes attached to "
        "shared-memory store snapshots (multi-core); both backends are "
        "bit-identical",
    )
    serve.add_argument(
        "--mining-workers",
        type=int,
        default=4,
        help="worker count of the mining pool (threads or processes, "
        "per --mining-backend); 0 or 1 runs mining inline",
    )
    serve.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="enable the durability subsystem in this directory: every "
        "ingest is write-ahead logged, each compaction writes an mmap-able "
        "snapshot, and startup crash-recovers to the exact pre-crash state",
    )
    serve.add_argument(
        "--wal-fsync",
        choices=("always", "batch", "never"),
        default="batch",
        help="write-ahead-log fsync policy: 'always' per record, 'batch' "
        "per ingest call (default), 'never' leaves flushing to the OS",
    )
    serve.add_argument(
        "--mining-timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds on a request's SM + DM mining "
        "(requests over it get a 503; requires --mining-workers > 1); "
        "default: no deadline",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="bound on concurrently admitted requests; excess load is shed "
        "with 503 + Retry-After (0 disables the gate; ops endpoints "
        "always bypass it)",
    )
    serve.add_argument(
        "--api-key",
        action="append",
        default=None,
        metavar="KEY",
        help="require this API key (X-API-Key or Authorization: Bearer) on "
        "the write endpoints ingest/ingest_batch/compact/snapshot/warmup; "
        "repeatable to accept several keys; omitted = open write path",
    )
    serve.add_argument(
        "--rate-limit",
        action="append",
        default=None,
        metavar="ENDPOINT=RPS",
        help="token-bucket rate limit in requests/second for one API "
        "endpoint (breaches get 429 + Retry-After); use '*=RPS' as the "
        "default for all endpoints; repeatable",
    )

    return parser


def _load_dataset(args: argparse.Namespace):
    if args.data is not None:
        return load_movielens_directory(args.data)
    return generate_dataset(args.scale, seed=args.seed)


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    overrides = dict(
        max_groups=args.max_groups,
        min_coverage=args.coverage,
        min_group_support=args.min_support,
        require_geo_anchor=not args.no_geo_anchor,
    )
    if args.no_geo_anchor:
        overrides["grouping_attributes"] = ("gender", "age_group", "occupation", "state")
    return MiningConfig(**overrides)


def _time_interval(args: argparse.Namespace) -> Optional[TimeInterval]:
    if args.start_year is None and args.end_year is None:
        return None
    start = args.start_year if args.start_year is not None else args.end_year
    end = args.end_year if args.end_year is not None else args.start_year
    return TimeInterval.for_years(start, end)


def _build_system(args: argparse.Namespace) -> MapRat:
    dataset = _load_dataset(args)
    return MapRat.for_dataset(dataset, PipelineConfig(mining=_mining_config(args)))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace, out) -> int:
    dataset = _load_dataset(args)
    write_movielens_directory(dataset, args.output)
    print(
        f"wrote {dataset.num_ratings} ratings / {dataset.num_reviewers} reviewers / "
        f"{dataset.num_items} movies to {args.output}",
        file=out,
    )
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    system = _build_system(args)
    result = system.explain(args.query, time_interval=_time_interval(args))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2), file=out)
    else:
        print(render_result_text(result), file=out)
    if args.html is not None:
        ExplanationReport().render_to_file(result, str(args.html), title=f"MapRat — {args.query}")
        print(f"wrote {args.html}", file=out)
    return 0


def _cmd_explore(args: argparse.Namespace, out) -> int:
    system = _build_system(args)
    stats = system.group_statistics(args.query, args.task, args.group, _time_interval(args))
    print(f"group: {stats.label}", file=out)
    print(
        f"  {stats.size} ratings, mean {stats.mean:.2f}, std {stats.std:.2f}, "
        f"lift {stats.lift:+.2f}",
        file=out,
    )
    print(
        "  histogram: "
        + ", ".join(f"{score}*{count}" for score, count in sorted(stats.histogram.items())),
        file=out,
    )
    print("city drill-down:", file=out)
    for aggregate in system.drill_down(args.query, args.task, args.group, _time_interval(args)):
        print(
            f"  {aggregate.location:<18s} avg {aggregate.statistics.mean:.2f} "
            f"({aggregate.statistics.size} ratings)",
            file=out,
        )
    if args.html is not None:
        html = system.exploration_html(args.query, args.task, args.group, _time_interval(args))
        Path(args.html).write_text(html, encoding="utf-8")
        print(f"wrote {args.html}", file=out)
    return 0


def _cmd_timeline(args: argparse.Namespace, out) -> int:
    system = _build_system(args)
    for timeline_slice in system.timeline(args.query, min_ratings=args.min_ratings):
        if timeline_slice.result is None:
            print(
                f"{timeline_slice.year}: {timeline_slice.num_ratings} ratings (not mined)",
                file=out,
            )
            continue
        labels = ", ".join(timeline_slice.labels("similarity"))
        print(
            f"{timeline_slice.year}: avg "
            f"{timeline_slice.result.query.average_rating:.2f} over "
            f"{timeline_slice.num_ratings} ratings — {labels}",
            file=out,
        )
    return 0


def _parse_rate_limits(entries: Optional[Sequence[str]]) -> tuple:
    """Parse repeated ``--rate-limit endpoint=rps`` flags into config pairs."""
    if not entries:
        return ()
    limits = []
    for entry in entries:
        endpoint, separator, rate = entry.partition("=")
        if not separator or not endpoint:
            raise MapRatError(
                f"--rate-limit expects ENDPOINT=RPS, got {entry!r}"
            )
        try:
            limits.append((endpoint, float(rate)))
        except ValueError:
            raise MapRatError(
                f"--rate-limit rate must be a number, got {rate!r}"
            ) from None
    return tuple(limits)


def _cmd_serve(args: argparse.Namespace, out) -> int:
    config = PipelineConfig(
        mining=_mining_config(args),
        server=ServerConfig(
            mining_backend=args.mining_backend,
            mining_workers=args.mining_workers,
            data_dir=None if args.data_dir is None else str(args.data_dir),
            wal_fsync=args.wal_fsync,
            mining_timeout_s=args.mining_timeout,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            rate_limits=_parse_rate_limits(args.rate_limit),
            api_keys=tuple(args.api_key or ()),
        ),
    )
    # No local keeps the loaded dataset: once the first compaction replaces
    # the store's rating columns, nothing may pin the starting epoch's.
    server = run_server(
        _load_dataset(args), config, host=args.host, port=args.port, warm_up=args.warm_up
    )
    print(f"MapRat serving at {server.url} (Ctrl-C to stop)", file=out)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "explain": _cmd_explain,
    "explore": _cmd_explore,
    "timeline": _cmd_timeline,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except MapRatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
