"""Nested span tracing over an append-only JSONL stream.

One trace file is a sequence of JSON records, one per line, four kinds:

``{"t": "B", "id": n, "parent": p, "name": ..., "ts": ..., "attrs": {...}}``
    span begin; ``parent`` is 0 for roots.
``{"t": "E", "id": n, "ts": ..., "status": "ok" | "error" | "aborted"}``
    span end (``"error"`` records carry an ``"error"`` repr).
``{"t": "I", "parent": p, "name": ..., "ts": ..., "attrs": {...}}``
    instant event (progress ticks ride these).
``{"t": "M", "ts": ..., "scope": ..., "metrics": {...}}``
    a :class:`~repro.obs.metrics.MetricsRegistry` snapshot.

Begin/end are separate records on purpose: a killed worker leaves a
readable prefix whose open spans the merging parent closes with an
``aborted`` status (:meth:`Tracer.absorb_file`) — never truncated JSON.

Span ids are sequential integers per tracer, timestamps come from
:mod:`repro.obs.clock`, and every record is written with sorted keys, so a
trace taken under a ``FrozenClock`` is byte-deterministic.

``NullTracer`` is the zero-overhead default when tracing is off.  It still
dispatches *listeners* — progress callbacks subscribe to the event stream
(:func:`progress_listener`), giving progress reporting and telemetry one
code path whether or not a trace file is being written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.obs.clock import Clock, default_clock
from repro.obs.metrics import MetricsRegistry, get_registry

#: File name every per-worker and campaign trace stream uses.
TRACE_FILENAME = "trace.jsonl"

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_ABORTED = "aborted"


class _Span:
    """Context manager closing one span; returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "id", "name")

    def __init__(self, tracer: "Tracer", span_id: int, name: str) -> None:
        self._tracer = tracer
        self.id = span_id
        self.name = name

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._tracer._end_span(self.id, STATUS_OK)
        else:
            self._tracer._end_span(self.id, STATUS_ERROR, error=repr(exc))
        return False


class _NullSpan:
    """Shared no-op span so ``NullTracer.span`` allocates nothing."""

    __slots__ = ()
    id = 0
    name = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

Listener = Callable[[str, dict], None]


class NullTracer:
    """The zero-overhead default: no file, no records, listeners only."""

    enabled = False

    def __init__(self) -> None:
        self._listeners: list[Listener] = []

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        for listener in self._listeners:
            listener(name, attrs)

    def record_metrics(
        self, registry: MetricsRegistry | None = None, scope: str = "process"
    ) -> None:
        pass

    def absorb_file(self, path: Path, parent_id: int = 0, **attrs) -> int:
        return 0

    def close(self) -> None:
        pass


#: Module-level shared no-op tracer: the default for every instrumented API.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Writes nested span records to an append-only JSONL file."""

    enabled = True

    def __init__(self, path: str | Path, clock: Clock | None = None) -> None:
        super().__init__()
        self.path = Path(path)
        self._clock = clock if clock is not None else default_clock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        next_id, orphans, last_ts = _recover_existing(self.path)
        self._file = self.path.open("a", encoding="utf-8")
        self._stack: list[int] = []
        self._next_id = next_id
        self._open_names: dict[int, str] = {}
        # A prior run killed mid-campaign left open spans behind: close them
        # as aborted (innermost first) so the resumed stream stays well-formed.
        for span_id in reversed(orphans):
            self._write(
                {"t": "E", "id": span_id, "ts": last_ts, "status": STATUS_ABORTED}
            )

    # ------------------------------------------------------------------
    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def _take_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """Open a nested span; use as a context manager."""
        span_id = self._take_id()
        parent = self._stack[-1] if self._stack else 0
        record = {
            "t": "B",
            "id": span_id,
            "parent": parent,
            "name": name,
            "ts": self._clock.monotonic(),
        }
        if attrs:
            record["attrs"] = attrs
        self._write(record)
        self._stack.append(span_id)
        self._open_names[span_id] = name
        return _Span(self, span_id, name)

    def _end_span(self, span_id: int, status: str, error: str | None = None) -> None:
        if not self._stack or self._stack[-1] != span_id:
            raise ValueError(
                f"span {span_id} ended out of order (open stack: {self._stack})"
            )
        self._stack.pop()
        self._open_names.pop(span_id, None)
        record = {"t": "E", "id": span_id, "ts": self._clock.monotonic(), "status": status}
        if error is not None:
            record["error"] = error
        self._write(record)

    def event(self, name: str, **attrs) -> None:
        """An instant event under the current span; also feeds listeners."""
        record = {
            "t": "I",
            "parent": self._stack[-1] if self._stack else 0,
            "name": name,
            "ts": self._clock.monotonic(),
        }
        if attrs:
            record["attrs"] = attrs
        self._write(record)
        for listener in self._listeners:
            listener(name, attrs)

    def record_metrics(
        self, registry: MetricsRegistry | None = None, scope: str = "process"
    ) -> None:
        """Snapshot a registry into the trace (the obs-sanctioned read).

        Reading metrics is confined to the obs layer: callers hand over the
        registry (or default to the process one) and the snapshot goes
        straight into the stream, never back to the caller.
        """
        registry = registry if registry is not None else get_registry()
        registry.update_peak_rss()
        self._write(
            {
                "t": "M",
                "ts": self._clock.monotonic(),
                "scope": scope,
                "metrics": registry.snapshot(),
            }
        )

    # ------------------------------------------------------------------
    def absorb_file(self, path: Path, parent_id: int = 0, **attrs) -> int:
        """Merge another trace file under ``parent_id``, remapping span ids.

        Parentage is preserved: records keep their relative structure, and
        old roots are re-parented onto ``parent_id``.  Spans left open —
        the signature a killed worker leaves behind — get a synthesized
        ``E`` record with ``aborted`` status at the stream's last seen
        timestamp, so merged traces are always well-formed.  A trailing
        half-written line (the other kill signature) is tolerated; a
        malformed line anywhere else raises ``ValueError``.

        Returns the number of records absorbed (synthesized ends included).
        """
        path = Path(path)
        if not path.is_file():
            return 0
        records = _read_records(path)
        absorbed = 0
        id_map: dict[int, int] = {}
        open_ids: list[int] = []
        last_ts = None
        for record in records:
            kind = record.get("t")
            ts = record.get("ts")
            if ts is not None:
                last_ts = ts
            if kind == "B":
                new_id = self._take_id()
                id_map[record["id"]] = new_id
                out = dict(record)
                out["id"] = new_id
                out["parent"] = id_map.get(record.get("parent", 0), parent_id)
                if attrs:
                    merged = dict(out.get("attrs") or {})
                    merged.update(attrs)
                    out["attrs"] = merged
                open_ids.append(new_id)
                self._write(out)
                absorbed += 1
            elif kind == "E":
                new_id = id_map.get(record["id"])
                if new_id is None:
                    raise ValueError(
                        f"{path}: end record for unknown span {record['id']}"
                    )
                out = dict(record)
                out["id"] = new_id
                if new_id in open_ids:
                    open_ids.remove(new_id)
                self._write(out)
                absorbed += 1
            elif kind == "I":
                out = dict(record)
                out["parent"] = id_map.get(record.get("parent", 0), parent_id)
                self._write(out)
                absorbed += 1
            elif kind == "M":
                self._write(dict(record))
                absorbed += 1
            else:
                raise ValueError(f"{path}: unknown trace record kind {kind!r}")
        # Close orphans innermost-first so the merged stream nests cleanly.
        for span_id in reversed(open_ids):
            self._write(
                {
                    "t": "E",
                    "id": span_id,
                    "ts": last_ts if last_ts is not None else 0.0,
                    "status": STATUS_ABORTED,
                }
            )
            absorbed += 1
        return absorbed

    def close(self) -> None:
        """Close the stream; any still-open spans end as ``aborted``."""
        if self._file.closed:
            return
        while self._stack:
            span_id = self._stack[-1]
            self._end_span(span_id, STATUS_ABORTED)
        self._file.close()


def _recover_existing(path: Path) -> tuple[int, list[int], float]:
    """Resume state from an existing stream: next id, orphan ids, last ts.

    Appending to a trace a previous (possibly killed) run left behind must
    neither reuse span ids nor leave that run's unfinished spans dangling.
    """
    if not path.is_file() or path.stat().st_size == 0:
        return 1, [], 0.0
    max_id = 0
    open_ids: list[int] = []
    last_ts = 0.0
    for record in _read_records(path):
        ts = record.get("ts")
        if ts is not None:
            last_ts = ts
        kind = record.get("t")
        if kind == "B":
            max_id = max(max_id, record["id"])
            open_ids.append(record["id"])
        elif kind == "E" and record["id"] in open_ids:
            open_ids.remove(record["id"])
    return max_id + 1, open_ids, last_ts


def _read_records(path: Path) -> list[dict]:
    """Parse a JSONL trace, tolerating only a truncated *final* line."""
    records: list[dict] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # killed mid-write: drop the partial tail record
            raise ValueError(f"{path}:{index + 1}: malformed trace line")
    return records


def progress_listener(callback: Callable, event_name: str, factory: Callable):
    """Adapt a legacy progress callback onto the trace event stream.

    The runner and shard layers emit ``"batch"`` / ``"shard"`` events with
    the dataclass fields as attrs; this listener rebuilds the dataclass and
    invokes the legacy callback — one code path whether tracing is on
    (``Tracer``) or off (``NullTracer``).
    """

    def listen(name: str, attrs: dict) -> None:
        if name == event_name:
            callback(factory(**attrs))

    return listen
