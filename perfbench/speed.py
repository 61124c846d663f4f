"""Host speed: a fixed reference loop timed around every measured phase.

A shared host's per-core speed can swing by close to 2x from one stretch
of tens of seconds to the next (a neighbour on the same physical core, a
frequency change), and every phase of the program slows with it.  Each
phase is therefore timed between two runs of a fixed reference loop, and
the CPU part of its time is scaled to the speed at which that loop takes
``REFERENCE_S``: ``scaled = cpu * REFERENCE_S / mean(reference before,
reference after) + (wall - cpu)``.  The loop mixes the kinds of work the program does —
small-dict and string churn in the interpreter, and numpy sorts and
bincounts over a few megabytes — in about equal parts, and it is code of
the benchmark's own, so a change to the program never moves it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: The reference loop's time at the speed every scaled time refers to.
REFERENCE_S = 0.030

_VALUES = np.random.default_rng(2015).random(1_000_000)


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    table: dict = {}
    for index in range(80_000):
        table[index & 4095] = (index, str(index & 255))
    for _ in range(2):
        np.sort(_VALUES[::3])
        np.bincount((_VALUES * 1000).astype(np.int64))
    return time.perf_counter() - start


def clocks() -> tuple[float, float]:
    """(wall, this process's CPU) time now."""
    return time.perf_counter(), time.process_time()


def scaled(wall: float, cpu: float, scale: float) -> float:
    """``wall`` with its CPU part scaled to the reference speed.

    Only CPU time follows the CPU's speed; the rest of the interval, spent
    waiting on the disk (the monitor's fsynced checkpoints) or on worker
    processes, stays as measured.
    """
    cpu = min(cpu, wall)
    return cpu * scale + (wall - cpu)


class Stopwatch:
    """Times named phases, each with the host's speed around it."""

    def __init__(self) -> None:
        self.raw_s: dict[str, float] = {}
        self.cpu_s: dict[str, float] = {}
        #: Per phase: REFERENCE_S / the reference loop's mean time around it.
        self.scale: dict[str, float] = {}
        self._reference = reference_s()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        before = self._reference
        wall, cpu = clocks()
        yield
        wall_end, cpu_end = clocks()
        self.raw_s[name] = wall_end - wall
        self.cpu_s[name] = cpu_end - cpu
        self._reference = reference_s()
        self.scale[name] = REFERENCE_S / ((before + self._reference) / 2)

    def scaled_s(self, name: str) -> float:
        return scaled(self.raw_s[name], self.cpu_s[name], self.scale[name])
