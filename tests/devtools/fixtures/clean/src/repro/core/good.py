"""Fixture: one clean counterpart per repro-lint rule."""

from __future__ import annotations

import os.path
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

__all__ = ["exported_step", "joined", "zeros"]

from repro.core.instrumented import traced_step as exported_step

if TYPE_CHECKING:
    from repro.core.store import MeasurementStore


def seeded_sample(seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.random())


def total_reference(values: list[int]) -> int:
    total = 0
    for value in values:
        total += value
    return total


def ordered(values: list[str], spill_dir: Path) -> list[str]:
    rows = [value for value in sorted(set(values))]
    for path in sorted(spill_dir.glob("*.npz")):
        rows.append(path.name)
    return rows


def checkpoint(path: Path, payload: dict) -> None:
    from repro.core.shard import write_json_atomic

    write_json_atomic(path, payload)


def double(item: int) -> int:
    return item * 2


def fan_out(items: list[int]) -> None:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor() as pool:
        pool.map(double, items)


def joined(parts: list[str]) -> str:
    return os.path.join(*parts)


def zeros(store: "MeasurementStore") -> np.ndarray:
    return np.zeros(len(store))


def load_plugins() -> None:
    # repro-lint: disable=unused-import -- the module registers itself on import
    from repro.core import runner
