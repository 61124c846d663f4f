"""Environment stamp: what produced a result, kept apart from its metrics."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git.

    A checkout without ``.git`` (an exported tree) reports ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """A digest of the program's source files (``src/**/*.py``).

    Unlike the commit, it is known in an exported tree too, and it changes
    exactly when the code whose outputs are digested changes.
    """
    hasher = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(path.relative_to(src).as_posix().encode() + b"\0")
        hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_stamp(root: Path, workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": sys.platform,
    }
