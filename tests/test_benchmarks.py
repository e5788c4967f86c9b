"""Benchmark scripts still load, and their records name their host.

The writer benchmarks (``bench_kernel.py``, ``bench_procs.py``, ...) run only
by hand, and byte-compiling or a lint pass does not resolve imports, so a
benchmark importing a module that no longer exists would otherwise go
unnoticed.  Importing runs none of them: the writer scripts sit behind
``__main__`` guards and the pytest-style benches only define fixtures and
tests.

A speed claim counts only with the machine and commit that measured it, so
every checked-in ``BENCH_*.json`` record carries the CPU count and git sha
of its run (``benchmarks/_record.py`` writes that block).
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
SCRIPTS = sorted(BENCHMARKS_DIR.glob("bench_*.py"))
RECORDS = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_benchmark_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_benchmark_script_imports(script, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    name = f"_benchmark_import_check_{script.stem}"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    # Registered while executing: dataclasses resolve their module by name.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)


@pytest.mark.parametrize("record", RECORDS, ids=[path.name for path in RECORDS])
def test_benchmark_record_names_its_host_and_commit(record):
    environment = json.loads(record.read_text(encoding="utf-8")).get("environment", {})
    assert isinstance(environment.get("cpu_count"), int) and environment["cpu_count"] >= 1
    assert environment.get("git_sha")


def test_environment_block_describes_this_run():
    spec = importlib.util.spec_from_file_location(
        "_record_check", BENCHMARKS_DIR / "_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    environment = module.environment()
    assert environment["cpu_count"] == os.cpu_count()
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == numpy.__version__
    assert environment["platform"] == platform.platform()
    # None only outside a git checkout (an exported source tree).
    sha = environment["git_sha"]
    assert sha is None or re.fullmatch(r"[0-9a-f]{40}(-dirty)?", sha)
