"""The host block every checked-in ``BENCH_*.json`` record carries.

A benchmark number counts only together with the machine and the commit that
produced it, so each writer script stores :func:`environment` under the
record's ``"environment"`` key (``tests/test_benchmarks.py`` checks that every
record at the repository root has it).
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> Optional[str]:
    """HEAD's sha, suffixed ``-dirty`` when tracked files differ from it."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """CPU count, Python, numpy, platform and git sha of this run."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }
