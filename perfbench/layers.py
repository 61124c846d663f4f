"""Per-layer tracing for the traced benchmark run.

The traced run wraps each layer's entry points *from outside* the program:
:func:`install` replaces a function at every name a caller looks it up by
(a module attribute and every ``repro.*`` module that imported it by name,
or a class attribute), records one span per call, and :func:`uninstall`
puts the originals back.  Nothing under ``src/`` changes, and the untraced
runs execute the unmodified code.

A span is ``(id, name, start, end, parent, run id)`` plus optional counts.
Spans stay in memory (:class:`SpanRecorder`) and are written once, at exit.
A layer's self time is its span's duration minus the time its child spans
cover (:func:`self_times`).

Shard workers forked by the sharded campaign inherit the wrappers; the
wrapped ``shard_worker`` ships each worker's spans and registry deltas back
through a file under the run's work directory (:func:`collect_worker_spans`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.obs.metrics import get_registry


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int = 0
    run: str = ""
    pid: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "run": self.run,
            "pid": self.pid, "counts": self.counts,
        }


class SpanRecorder:
    """In-memory span stack for one process; written out at exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.run = ""
        #: Where forked shard workers drop their spans for the parent.
        self.worker_dir: Path | None = None
        self._stack: list[Span] = []
        self._next_id = 1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else 0
        span = Span(self._next_id, name, time.perf_counter(), parent=parent,
                    run=self.run, pid=os.getpid())
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def phase(self, name: str):
        """A benchmark-level root span (setup, campaign, analysis, sweep);
        yields the span, or ``None`` when not recording."""
        span = self.open(name) if self.active else None
        try:
            yield span
        finally:
            if span is not None:
                self.close(span)

    def forget(self) -> None:
        """Start over (a forked worker drops the parent's inherited spans)."""
        self.spans = []
        self._stack = []

    def adopt(self, records: list[dict], parent: int) -> None:
        """Mount another process's span records under ``parent``."""
        offset = self._next_id
        top = 0
        for record in records:
            span = Span(**record)
            span.id += offset
            span.parent = span.parent + offset if span.parent else parent
            top = max(top, span.id)
            self.spans.append(span)
        self._next_id = max(self._next_id, top + 1)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_record(), sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _rows_returned(args, kwargs, result) -> dict:
    return {"rows": int(result)}


def _store_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[0])}


def _cells_scored(args, kwargs, result) -> dict:
    return {"cells": len(args[1])}


def _filter_counts(args, kwargs, result) -> dict:
    return {"rows": len(result.store), "dropped": int(result.dropped)}


def _forged_rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


@dataclass(frozen=True)
class Hook:
    layer: str
    #: ``"module:function"`` or ``"module:Class.method"``.
    target: str
    count: Callable | None = None


#: Every layer's entry points, named by the layer (the module) they belong to.
HOOKS = (
    Hook("population.world", "repro.population.world:World.__init__"),
    Hook("task_generation.run", "repro.core.task_generation:TaskGenerationPipeline.run"),
    Hook("runner.plan_context", "repro.core.runner:CampaignRunner.plan_context"),
    Hook("runner.plan", "repro.core.runner:CampaignRunner._plan_block"),
    Hook("runner.plan", "repro.core.runner:CampaignRunner._slice_block"),
    Hook("runner.execute", "repro.core.runner:CampaignRunner.execute_plan"),
    Hook("collection.ingest", "repro.core.collection:CollectionServer.ingest_columns",
         _rows_returned),
    # Every seal (threshold, spill, adopt, the monitor's seal_pending) runs
    # the private one, which is what store.segments_sealed counts.
    Hook("store.seal", "repro.core.store:MeasurementStore._seal_pending"),
    Hook("store.spill", "repro.core.store:MeasurementStore.spill"),
    Hook("store.adopt", "repro.core.store:MeasurementStore.adopt_spilled_segment"),
    Hook("store.adopt", "repro.core.store:MeasurementStore.adopt_segments_from"),
    Hook("shard.execute_shard", "repro.core.shard:execute_shard"),
    Hook("shard.manifest", "repro.core.shard:write_manifest"),
    Hook("shard.merge", "repro.core.shard:StoreMerger.merge", _rows_returned),
    Hook("query", "repro.core.query:run_query", _store_rows),
    Hook("inference.binomial", "repro.core.inference:BinomialFilteringDetector.detect"),
    Hook("inference.binomial",
         "repro.core.inference:BinomialFilteringDetector.detect_from_counts", _cells_scored),
    Hook("inference.cusum_resume", "repro.core.inference:CusumChangePointDetector.resume"),
    Hook("inference.checkpoint", "repro.core.inference:CusumState.save"),
    Hook("inference.timing_cusum", "repro.core.inference:TimingCusumDetector.detect_events"),
    Hook("reports.grade", "repro.analysis.reports:build_timeline_report"),
    Hook("reports.grade", "repro.analysis.reports:build_throttle_report"),
    Hook("robustness.filter", "repro.core.robustness:ReputationFilter.apply_store",
         _filter_counts),
    Hook("robustness.forge", "repro.core.robustness:PoisoningAttacker.forge_columns",
         _forged_rows),
)

#: Registry counters the program already keeps, read per traced iteration.
REGISTRY_COUNTERS = (
    "runner.blocks_planned",
    "store.rows_ingested",
    "store.segments_sealed",
    "store.segments_spilled",
    "store.rows_adopted",
    "store.segments_folded",
    "cusum.cells_scanned",
    "timing_cusum.cells_scanned",
)


def _resolve(target: str):
    """(owner object, attribute name, original function) for a hook target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _bindings(owner, attr: str, original) -> list[tuple[object, str]]:
    """Every place callers look ``original`` up: the owner, plus any
    ``repro.*`` module that bound a module-level function by import."""
    places = [(owner, attr)]
    if isinstance(owner, type):
        return places
    for name, module in sorted(sys.modules.items()):
        if module is owner or not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                places.append((module, key))
    return places


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, original, count: Callable | None):
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            span = recorder.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for hook in HOOKS:
            owner, attr, original = _resolve(hook.target)
            wrapper = self._wrap(hook.layer, original, hook.count)
            for place, name in _bindings(owner, attr, original):
                self._patch(place, name, wrapper)
        self._install_fold_probes()
        self._install_worker_shipping()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- count-only probes: rows the query kernel actually read ---------
    def _install_fold_probes(self) -> None:
        from repro.core import query, store

        recorder = self.recorder

        def note_rows(rows: int) -> None:
            span = recorder.current()
            if recorder.active and span is not None and span.name == "query":
                span.counts["rows_folded"] = span.counts.get("rows_folded", 0) + rows

        fold = query._QueryFoldState.fold

        @functools.wraps(fold)
        def counted_fold(self, part):
            note_rows(len(part[next(iter(part))]))
            return fold(self, part)

        chunks = store.MeasurementStore._segment_chunks

        @functools.wraps(chunks)
        def counted_chunks(self, names):
            for offset, length, part in chunks(self, names):
                note_rows(length)
                yield offset, length, part

        self._patch(query._QueryFoldState, "fold", counted_fold)
        self._patch(store.MeasurementStore, "_segment_chunks", counted_chunks)

    # -- forked shard workers ship their spans back ---------------------
    def _install_worker_shipping(self) -> None:
        from repro.core import shard

        recorder = self.recorder
        worker = shard.shard_worker

        @functools.wraps(worker)
        def shipping_worker(payload):
            recorder.forget()
            before = counter_snapshot()
            try:
                return worker(payload)
            finally:
                if recorder.worker_dir is not None:
                    ship = {
                        "spans": [span.as_record() for span in recorder.spans],
                        "counters": counter_delta(before, counter_snapshot()),
                    }
                    recorder.worker_dir.mkdir(parents=True, exist_ok=True)
                    path = recorder.worker_dir / (
                        f"worker-{os.getpid()}-{payload['assignment'].shard_index}.json"
                    )
                    path.write_text(json.dumps(ship))

        self._patch(shard, "shard_worker", shipping_worker)


def collect_worker_spans(recorder: SpanRecorder, parent: int) -> tuple[int, dict]:
    """Mount every shipped worker file under ``parent``; return (files, counters)."""
    counters: dict[str, int] = {}
    files = 0
    if recorder.worker_dir is None or not recorder.worker_dir.is_dir():
        return 0, counters
    for path in sorted(recorder.worker_dir.glob("worker-*.json")):
        shipped = json.loads(path.read_text())
        recorder.adopt(shipped["spans"], parent)
        for name, value in shipped["counters"].items():
            counters[name] = counters.get(name, 0) + value
        path.unlink()
        files += 1
    return files, counters


def counter_snapshot() -> dict[str, int]:
    counters = get_registry().snapshot()["counters"]
    return {name: int(counters.get(name, 0)) for name in REGISTRY_COUNTERS}


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    return {name: after[name] - before[name] for name in REGISTRY_COUNTERS}


def children_peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of any waited-for child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# From spans to per-layer numbers
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Only children in the span's own process count: a shard worker's spans
    hang under the parent's campaign span but run beside it, not in it, so
    the campaign span's self time stays the parent's own (waiting) time.
    """
    pids = {span.id: span.pid for span in spans}
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent and pids.get(span.parent) == span.pid:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time ``s``, outermost ``calls``, and counts.

    A call nested in a span of the same layer (``detect`` calling
    ``detect_from_counts``) adds self time and counts but not a call.
    """
    selfs = self_times(spans)
    names = {span.id: span.name for span in spans}
    totals: dict[str, dict] = {}
    for span in spans:
        total = totals.setdefault(span.name, {"s": 0.0, "calls": 0})
        total["s"] += selfs[span.id]
        if names.get(span.parent) != span.name:
            total["calls"] += 1
        for key, value in span.counts.items():
            total[key] = total.get(key, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans: list[Span], counters: dict[str, int], visits: int,
                      epoch_self: list[float]) -> dict[str, float]:
    """The per-layer metrics of one traced iteration (see CATALOG.md)."""
    totals = layer_totals(spans)

    def seconds(layer: str) -> float:
        return totals.get(layer, {}).get("s", 0.0)

    def count(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    selfs = self_times(spans)
    parent_wait = sum(
        selfs[span.id] for span in spans if span.name == "campaign" and not span.parent
    )
    epoch_self = sorted(epoch_self)
    return {
        "population.world_s": seconds("population.world"),
        "task_generation.run_s": seconds("task_generation.run"),
        "runner.plan_s": seconds("runner.plan"),
        "runner.plan_us_per_visit": _ratio(seconds("runner.plan") * 1e6, visits),
        "runner.blocks_planned": counters["runner.blocks_planned"],
        "runner.execute_s": seconds("runner.execute"),
        "runner.execute_us_per_visit": _ratio(seconds("runner.execute") * 1e6, visits),
        "runner.plan_context_s": seconds("runner.plan_context"),
        "collection.ingest_s": seconds("collection.ingest"),
        "collection.ingest_us_per_row": _ratio(
            seconds("collection.ingest") * 1e6, count("collection.ingest", "rows")),
        "store.rows_ingested": counters["store.rows_ingested"],
        "store.seal_s": seconds("store.seal"),
        "store.segments_sealed": counters["store.segments_sealed"],
        "store.spill_s": seconds("store.spill"),
        "store.segments_spilled": counters["store.segments_spilled"],
        "store.adopt_s": seconds("store.adopt"),
        "store.rows_adopted": counters["store.rows_adopted"],
        "shard.execute_shard_s": seconds("shard.execute_shard"),
        "shard.manifest_s": seconds("shard.manifest"),
        "shard.merge_s": seconds("shard.merge"),
        "shard.merge_us_per_row": _ratio(
            seconds("shard.merge") * 1e6, count("shard.merge", "rows")),
        "shard.parent_wait_s": parent_wait,
        "query.calls": count("query", "calls"),
        "query.s": seconds("query"),
        "query.us_per_row": _ratio(seconds("query") * 1e6, count("query", "rows")),
        "store.segments_folded": counters["store.segments_folded"],
        "query.fold_ratio": _ratio(count("query", "rows_folded"), count("query", "rows")),
        "inference.binomial_s": seconds("inference.binomial"),
        "inference.cells_scored": count("inference.binomial", "cells"),
        "inference.cusum_resume_s": seconds("inference.cusum_resume"),
        "cusum.cells_scanned": counters["cusum.cells_scanned"],
        "inference.checkpoint_s": seconds("inference.checkpoint"),
        "inference.timing_cusum_s": seconds("inference.timing_cusum"),
        "timing_cusum.cells_scanned": counters["timing_cusum.cells_scanned"],
        "reports.grade_s": seconds("reports.grade"),
        "robustness.filter_s": seconds("robustness.filter"),
        "robustness.filter_us_per_row": _ratio(
            seconds("robustness.filter") * 1e6, count("robustness.filter", "rows")),
        "robustness.drop_ratio": _ratio(
            count("robustness.filter", "dropped"), count("robustness.filter", "rows")),
        "robustness.forge_s": seconds("robustness.forge"),
        "robustness.rows_forged": count("robustness.forge", "rows"),
        "longitudinal.epoch_self_s": (
            epoch_self[len(epoch_self) // 2] if epoch_self else 0.0
        ),
    }


def epoch_self_times(spans: list[Span], phase: Span, stamps: list[float]) -> list[float]:
    """Per epoch: the interval between consecutive epoch stamps minus the
    part of it covered by the phase's direct child (layer) spans."""
    bounds = [phase.start] + list(stamps)
    children = sorted(
        (span for span in spans if span.parent == phase.id), key=lambda s: s.start
    )
    result = []
    for lo, hi in zip(bounds, bounds[1:]):
        covered = sum(
            max(0.0, min(span.end, hi) - max(span.start, lo)) for span in children
            if span.end > lo and span.start < hi
        )
        result.append((hi - lo) - covered)
    return result
