"""Output digests: what every benchmark run checks, traced or not.

A digest is a short SHA-256 over a canonical form of an output:

* :func:`store_digest` — the store's decoded rows in row order.  Dictionary
  columns are hashed as each row's rank in the sorted value table, so two
  stores holding the same rows agree even when their value tables were
  built in another order (a merged sharded store vs. a batch one).
  ``measurement_id`` is left out: task ids are fresh uuid4s per deployment.
* :func:`json_digest` — detection pairs, sweep verdicts, events, reports.

The recorded digests for the default seed live in ``expected_digests.json``
next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

#: Columns hashed as raw values, cast to one dtype so widths never differ.
_NUMERIC = (
    ("task", np.int64), ("outcome", np.int64), ("elapsed_ms", np.float64),
    ("probe_time_ms", np.float64), ("day", np.int64), ("automated", np.bool_),
)
_DICT_KINDS = ("url", "domain", "country", "isp", "family", "origin")

EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")


def _short(hasher) -> str:
    return hasher.hexdigest()[:16]


def store_digest(store) -> str:
    hasher = hashlib.sha256()
    hasher.update(str(len(store)).encode())
    for name, dtype in _NUMERIC:
        hasher.update(name.encode())
        hasher.update(np.ascontiguousarray(store.column(name), dtype=dtype).tobytes())
    tables = store.value_tables()
    for kind in _DICT_KINDS:
        values = [str(value) for value in tables[kind]]
        order = sorted(range(len(values)), key=values.__getitem__)
        # The tail entry keeps the stripped-origin sentinel (-1) at -1.
        rank = np.full(len(values) + 1, -1, dtype=np.int64)
        rank[order] = np.arange(len(values))
        codes = store.column(kind).astype(np.int64)
        hasher.update(kind.encode())
        hasher.update("\x1f".join(sorted(values)).encode())
        hasher.update(rank[codes].tobytes())
    hasher.update("\x1f".join(store.column("client_ip").tolist()).encode())
    return _short(hasher)


def json_digest(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True, default=str)
    return _short(hashlib.sha256(encoded.encode()))


def detection_payload(report) -> list:
    return sorted(
        [d.domain, d.country_code, d.measurements, d.successes, repr(d.p_value)]
        for d in report.detections
    )


def sweep_cell_payload(cell) -> list:
    return [
        cell.submissions, cell.identities, cell.forged, cell.poisoned_rows,
        sorted(map(list, cell.naive_pairs)), sorted(map(list, cell.defended_pairs)),
        cell.dropped_rate_limited, cell.dropped_low_reputation,
    ]


def event_payload(events) -> list:
    return [
        [e.domain, e.country_code, e.kind, e.change_day, e.detected_day,
         repr(e.statistic), repr(e.confidence)]
        for e in events
    ]


# ----------------------------------------------------------------------
# References a run's digests are checked against
# ----------------------------------------------------------------------
def recorded(family: str, seed: int) -> dict | None:
    """The committed digests of ``family`` if ``seed`` is the recorded seed."""
    expected = json.loads(EXPECTED_PATH.read_text())
    if expected["seed"] != seed:
        return None
    return expected[family]


def shared(cache_dir: Path, family: str, seed: int) -> dict | None:
    """Digests another workload of the same family left for this seed.

    ``cache_dir`` is specific to one version of the program's source, so a
    change that alters outputs on purpose never meets the old ones.
    """
    path = cache_dir / f"{family}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def share(cache_dir: Path, family: str, seed: int, digests: dict) -> None:
    """Leave this run's digests for the family's other workloads (atomic)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{family}-seed{seed}.json"
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(digests, indent=1, sort_keys=True))
    os.replace(scratch, path)


def mismatches(digests: dict, reference: dict) -> set[str]:
    """The parts of ``digests`` that differ from ``reference``.

    List-valued parts (one digest per sweep cell) are compared element by
    element and reported as ``"part[i]"``.
    """
    wrong = set()
    for part, value in digests.items():
        expected = reference.get(part)
        if isinstance(value, list):
            expected = expected if isinstance(expected, list) else []
            for index, item in enumerate(value):
                if index >= len(expected) or expected[index] != item:
                    wrong.add(f"{part}[{index}]")
        elif value != expected:
            wrong.add(part)
    return wrong
