"""Import check: every benchmark script still loads against the package.

The writer benchmarks (``bench_kernel.py``, ``bench_procs.py``, ...) run only
by hand, and byte-compiling or a lint pass does not resolve imports, so a
benchmark importing a module that no longer exists would otherwise go
unnoticed.  Importing runs none of them: the writer scripts sit behind
``__main__`` guards and the pytest-style benches only define fixtures and
tests.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
SCRIPTS = sorted(BENCHMARKS_DIR.glob("bench_*.py"))


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
