"""Self-check of the benchmark: ``python3 perfbench/selfcheck.py`` from the checkout root.

Checks, in about two minutes and without a full-length run:

1. ``BENCHMARK.json`` has exactly the manifest format's keys and limits: names
   match ``[A-Za-z0-9][A-Za-z0-9_.-]*`` (at most 64 characters, each used
   once), units are short, there are 2-8 workloads, 1-16 end-to-end and
   1-128 per-layer metrics, every bound is at most 0.25 and ``setup_s`` has
   the largest, the command names nothing outside ``paths``, and ``paths``
   hold only regular files.
2. The manifest names exactly the workloads and metrics (with units) that
   ``run.py`` and ``layers.py`` emit.
3. A 2-second smoke run of every workload, traced and untraced, on the
   benchmark's own inputs prints a last line with exactly ``correct``,
   ``attempted``, ``failed`` and ``metrics``, reports exactly the manifest's
   metrics, passes its output checks, and leaves no run directory or server
   process behind (only the dataset cache stays).  Its mechanism flags are
   not asserted: a one-second window is too short to fill the result cache
   or reach a compaction.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's files,
   the benchmark exits non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise (the failures are listed).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SMOKE = ["--seed", "1", "--seconds", "2"]
#: Time budget of one full evaluation, in which 4 + 22 runs per workload must
#: fit; a run costs its window plus about this much set-up (two server
#: start-ups, input generation, checks).
BUDGET_S = 3420
RUN_OVERHEAD_S = 22


def check_manifest(manifest: dict, raw_size: int) -> List[str]:
    problems = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    need(raw_size <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    need(set(manifest) == KEYS, f"keys are {sorted(manifest)}, expected {sorted(KEYS)}")
    paths = manifest.get("paths", [])
    need(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for path in paths:
        need(isinstance(path, str) and bool(PATH.match(path)), f"path {path!r} is malformed")
        need(not str(path).startswith("/") and ".." not in Path(path).parts, f"path {path!r} escapes")
        directory = ROOT / path
        need(directory.is_dir(), f"path {path!r} is not a directory")
        for entry in directory.rglob("*"):
            if "__pycache__" in entry.parts:
                continue
            need(entry.is_dir() or (entry.is_file() and not entry.is_symlink()),
                 f"{entry} is not a regular file")
    command = manifest.get("command", [])
    need(isinstance(command, list) and 1 <= len(command) <= 32, "command: 1 to 32 strings")
    for part in command:
        need(isinstance(part, str) and len(part) <= 200, f"command part {part!r} is malformed")
        if isinstance(part, str) and ("/" in part or (ROOT / part).exists()):
            need(not part.startswith("/") and ".." not in Path(part).parts, f"{part!r} escapes")
            need(any(Path(part).parts[:len(Path(p).parts)] == Path(p).parts for p in paths),
                 f"command names {part!r} outside paths")
    seconds = manifest.get("run_seconds")
    need(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds: a whole number 1-60")
    workloads = manifest.get("workloads", [])
    need(isinstance(workloads, list) and 2 <= len(workloads) <= 8, "workloads: 2 to 8")
    end_to_end = manifest.get("end_to_end", [])
    need(isinstance(end_to_end, list) and 1 <= len(end_to_end) <= 16, "end_to_end: 1 to 16")
    per_layer = manifest.get("per_layer", [])
    need(isinstance(per_layer, list) and 1 <= len(per_layer) <= 128, "per_layer: 1 to 128")
    names = []
    for workload in workloads:
        need(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        why = workload.get("why", "")
        need(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
             f"workload {workload.get('name')!r}: why must be one line of at most 200 characters")
        names.append(workload.get("name"))
    for metric in end_to_end:
        need(set(metric) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(metric)}")
        bound = metric.get("bound")
        need(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
             f"{metric.get('name')}: bound must be in (0, 0.25]")
    for metric in per_layer:
        need(set(metric) == {"name", "unit", "better"}, f"per_layer keys {sorted(metric)}")
    for metric in end_to_end + per_layer:
        names.append(metric.get("name"))
        need(isinstance(metric.get("unit"), str) and bool(UNIT.match(metric["unit"])),
             f"{metric.get('name')}: unit {metric.get('unit')!r} is malformed")
        need(metric.get("better") in ("lower", "higher"), f"{metric.get('name')}: better?")
    for name in names:
        need(isinstance(name, str) and bool(NAME.match(name)), f"name {name!r} is malformed")
    need(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in end_to_end if m.get("name") == "setup_s"]
    need(len(setup) == 1, "setup_s is missing")
    if setup:
        need(setup[0].get("unit") == "s" and setup[0].get("better") == "lower",
             "setup_s must be in s, lower is better")
        need(setup[0].get("bound") == max(m.get("bound", 0) for m in end_to_end),
             "setup_s must have the largest bound")
    if isinstance(seconds, int) and workloads:
        estimate = (4 + 22 * len(workloads)) * (seconds + RUN_OVERHEAD_S)
        need(estimate <= BUDGET_S, f"estimated {estimate}s of runs exceeds {BUDGET_S}s")
    return problems


def check_emitted(manifest: dict) -> List[str]:
    import workloads
    from layers import PER_LAYER
    from run import END_TO_END

    problems = []
    declared = tuple(w["name"] for w in manifest["workloads"])
    if declared != workloads.WORKLOADS:
        problems.append(f"workloads {declared} != run.py's {workloads.WORKLOADS}")
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        named = [(m["name"], m["unit"]) for m in manifest[key]]
        if named != list(emitted):
            problems.append(f"{key}: manifest {named} != emitted {list(emitted)}")
    return problems


def _leftovers() -> List[str]:
    from workloads import DATASET_CACHE

    found = [str(path) for path in ROOT.glob(".perfbench-*") if path.name != DATASET_CACHE]
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            argv = (proc / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if argv[1:4] == [b"-m", b"repro", b"serve"] or (
            len(argv) > 1 and argv[1].endswith(b"traced_serve.py")
        ):
            found.append(f"process {proc.name}: {b' '.join(argv)[:120]!r}")
    return found


def smoke(manifest: dict) -> List[str]:
    problems = []
    units = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    for workload in manifest["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            argv = manifest["command"] + ["--workload", workload["name"], "--trace", str(trace)]
            out = subprocess.run(argv + SMOKE, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{label}: exit {out.returncode}\n{out.stderr[-1500:]}")
                continue
            result = json.loads(lines[-1])
            emitted = {name: metric["unit"] for name, metric in result.get("metrics", {}).items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if emitted != units[trace]:
                problems.append(f"{label}: metrics differ from the manifest: {emitted}")
            checks = json.loads(lines[-2]).get("perfbench_record", {}).get("checks", {})
            if checks.get("failed") != 0 or checks.get("problems") or result.get("attempted", 0) < 1:
                problems.append(f"{label}: output checks failed: {checks}")
            leftovers = _leftovers()
            if leftovers:
                problems.append(f"{label}: left behind {leftovers}")
    return problems


def check_bare_directory(manifest: dict) -> List[str]:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selfcheck-", dir=ROOT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in manifest["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        argv = manifest["command"] + ["--workload", manifest["workloads"][0]["name"], "--trace", "0"]
        out = subprocess.run(argv + SMOKE, cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            return [f"without the sources the benchmark exited {out.returncode}: {out.stdout[-300:]}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    manifest = json.loads(raw)
    problems = check_manifest(manifest, len(raw))
    if not problems:
        problems = check_emitted(manifest)
    if not problems:
        problems = check_bare_directory(manifest) + smoke(manifest)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
