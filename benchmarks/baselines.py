"""Baseline loading shared by the benchmark and quality trend gates.

Both ``check_regression.py`` (BENCH speedups) and ``check_quality.py``
(QUALITY detection metrics) compare freshly written JSON reports against
the last *committed* copy of the same file.  Fresh reports never land on
the committed copies: benchmark runs write theirs into :data:`FRESH_DIR`
(gitignored), scenario runs into the directory given by ``--out``.  The
committed copy comes from ``git show HEAD:benchmarks/<name>`` by default,
or from a directory of snapshot copies when one is given.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).parent
#: Where benchmark runs write fresh ``BENCH_*.json`` reports (gitignored).
FRESH_DIR = BENCH_DIR / "fresh"


def committed_baseline(name: str) -> dict | None:
    """The committed copy of ``benchmarks/<name>`` at HEAD, if any."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/{name}"],
            capture_output=True, check=True, cwd=BENCH_DIR,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def snapshot_baseline(directory: Path, name: str) -> dict | None:
    """A baseline copy of ``<name>`` from a snapshot directory, if any."""
    path = directory / name
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def load_baseline(name: str, baseline_dir: Path | None) -> dict | None:
    """Snapshot copy when a directory is given, committed copy otherwise."""
    if baseline_dir is not None:
        return snapshot_baseline(baseline_dir, name)
    return committed_baseline(name)
