"""The benchmark's three workloads, each driven through public front doors.

Every workload is one closed-loop *iteration* repeated for the run's length
by ``run.py``: build a fresh ``World`` + ``EncoreDeployment`` (set-up),
collect, analyse cold, then run a §8 poisoning sweep — so every end-to-end
metric is measured on every workload.  An iteration returns its phase
times and outputs; the workload's ``check`` then digests the outputs
outside the timed (and traced) phases, and ``run.py`` compares digests.

Each workload's reason for being chosen sits next to its definition.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro import CampaignConfig, EncoreDeployment, PolicyTimeline, World, WorldConfig
from repro.core.inference import BinomialFilteringDetector
from repro.core.longitudinal import LongitudinalConfig
from repro.core.query import grouped_success_counts
from repro.core.robustness import AdversarySweep, ReputationFilter
from repro.obs.trace import NullTracer

import digests
from layers import SpanRecorder
import speed
from speed import Stopwatch, clocks

#: 48 planning blocks of 2048 (24 per shard), so no block, batch or shard
#: is a short remainder.
CAMPAIGN_VISITS = 98_304
#: One planning block per runner batch: 47 batch latencies per iteration
#: after the first, so a run's p90 has well over ten samples beyond it.
CAMPAIGN_BATCH = 2048
#: (domain, country) the sweep tries to fabricate; not flagged honestly.
SWEEP_TARGET = ("facebook.com", "DE")
SWEEP_BUDGETS = tuple(
    (submissions, identities)
    for submissions in (250, 1000, 4000, 16_000)
    for identities in (2, 8, 32, 128)
)

MONITOR_EPOCHS = 100
MONITOR_VISITS = 1000
TARGET_DOMAINS = ("facebook.com", "youtube.com", "twitter.com")
MONITOR_SWEEP_TARGET = ("twitter.com", "DE")
#: Two opposite corners of the campaign's grid: every workload reports
#: every end-to-end metric, and a poisoner can target a running monitor as
#: well as a campaign.  The monitor's store is 100 small spilled segments,
#: so each cell costs several times a campaign cell; two keep the sweep
#: near a tenth of the iteration.
MONITOR_SWEEP_BUDGETS = ((250, 2), (16_000, 128))
#: The monitor's set-up takes about 0.4 s, too short to time steadily once
#: per iteration on a shared host, so an untraced iteration sets up this
#: many times (only the last is used) and ``setup_s`` is the median of all.
MONITOR_SETUPS = 4


#: An iteration's timed phases, in order; also the traced run's root spans.
PHASES = ("setup", "campaign", "analysis", "sweep")


@dataclass
class Iteration:
    """What one closed-loop iteration measured and produced."""

    watch: Stopwatch
    visits: int = 0
    sweep_cells: int = 0
    #: Per commit unit (runner batch, shard, or monitor epoch): the
    #: (wall, CPU) time from when its work began to when its rows were
    #: committed, as measured.
    commit_latencies: list[tuple[float, float]] = field(default_factory=list)
    #: (wall, CPU) clocks at each commit.
    stamps: list[tuple[float, float]] = field(default_factory=list)
    #: The outputs the workload's check reads (dropped once checked).
    outputs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    #: Digest parts that failed a check of the workload's own.
    failed_parts: set[str] = field(default_factory=set)

    def phase_s(self, name: str, scaled: bool = True) -> float:
        """A phase's time, scaled to the reference speed or as measured."""
        return self.watch.scaled_s(name) if scaled else self.watch.raw_s[name]

    def setup_times(self, scaled: bool = True) -> list[float]:
        """Every set-up the iteration timed: ``setup`` and any ``setup-<k>``."""
        return [
            self.phase_s(name, scaled) for name in self.watch.raw_s
            if name.split("-")[0] == "setup"
        ]

    def latencies(self, scaled: bool = True) -> list[float]:
        scale = self.watch.scale["campaign"] if scaled else 1.0
        return [speed.scaled(wall, cpu, scale) for wall, cpu in self.commit_latencies]

    def wall_s(self, scaled: bool = True) -> float:
        return sum(self.phase_s(name, scaled) for name in PHASES)


@contextmanager
def timed(watch: Stopwatch, recorder: SpanRecorder, name: str) -> Iterator[None]:
    """One phase: timed by the stopwatch, and a root span when traced."""
    with watch.phase(name), recorder.phase(name):
        yield


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Workloads of one family must produce identical digests for a seed.
    family: str
    #: Operations per iteration, by the digest part that checks them.
    operations: dict
    iterate: Callable[[int, Path, SpanRecorder], Iteration]
    #: Fills ``Iteration.digests`` and ``failed_parts`` from its outputs.
    check: Callable[[Iteration], None]


def _intervals(starts, ends) -> list[tuple[float, float]]:
    """(wall, CPU) time from each (wall, CPU) start to its end."""
    return [(end[0] - start[0], end[1] - start[1]) for start, end in zip(starts, ends)]


def _sweep_digests(cells) -> list[str]:
    return [digests.json_digest(digests.sweep_cell_payload(cell)) for cell in cells]


# ----------------------------------------------------------------------
# campaign / campaign-sharded
# ----------------------------------------------------------------------
def _campaign_iteration(seed: int, work_dir: Path, recorder: SpanRecorder,
                        sharded: bool) -> Iteration:
    watch = Stopwatch()
    it = Iteration(watch, visits=CAMPAIGN_VISITS, sweep_cells=len(SWEEP_BUDGETS))
    with timed(watch, recorder, "setup"):
        world = World(WorldConfig(seed=seed))
        deployment = EncoreDeployment(
            world, CampaignConfig(visits=CAMPAIGN_VISITS, seed=seed)
        )
    mode = (
        {"mode": "sharded", "num_shards": 2, "shard_executor": "process",
         "worker_spill_dir": str(work_dir / "shards")}
        if sharded else {"mode": "batch", "batch_size": CAMPAIGN_BATCH}
    )
    with timed(watch, recorder, "campaign"):
        started = clocks()
        result = deployment.run_campaign(
            progress=lambda _: it.stamps.append(clocks()), **mode
        )
    with timed(watch, recorder, "analysis"):
        report = result.detect()
        verdict = ReputationFilter().apply_store(result.collection)
        filtered = BinomialFilteringDetector().detect_from_counts(verdict.success_counts())
    with timed(watch, recorder, "sweep"):
        cells = result.adversary_sweep(
            *SWEEP_TARGET, SWEEP_BUDGETS, executor="inline",
            spill_dir=str(work_dir / "sweep"),
        )
    # Shards run side by side, so each shard's latency runs from the
    # campaign's start.  Runner batches commit one after another; the first
    # also carries the campaign's start-up (URL table, verdict cache), so
    # the latencies are those of the batches after it.
    if sharded:
        it.commit_latencies = _intervals([started] * len(it.stamps), it.stamps)
    else:
        it.commit_latencies = _intervals(it.stamps[:-1], it.stamps[1:])
    it.outputs = {"result": result, "report": report, "verdict": verdict,
                  "filtered": filtered, "cells": cells}
    return it


def _campaign_check(it: Iteration) -> None:
    result, verdict = it.outputs["result"], it.outputs["verdict"]
    store = result.collection.store
    if result.visits_simulated != CAMPAIGN_VISITS or result.task_executions != len(store):
        it.failed_parts.add("rows")
    it.digests = {
        "rows": digests.store_digest(store),
        "analysis": digests.json_digest([
            digests.detection_payload(it.outputs["report"]),
            digests.detection_payload(it.outputs["filtered"]),
            verdict.dropped_rate_limited,
            verdict.dropped_low_reputation,
        ]),
        "sweep": _sweep_digests(it.outputs["cells"]),
    }


_CAMPAIGN_OPERATIONS = {"rows": 1, "analysis": 3, "sweep": len(SWEEP_BUDGETS)}

CAMPAIGN = Workload(
    name="campaign",
    why=(
        "one batch-mode 98k-visit §7 campaign into a resident store: the runner's "
        "plan/execute/ingest dominate, then query, inference and robustness; "
        "nothing spills or merges"
    ),
    family="campaign",
    operations=_CAMPAIGN_OPERATIONS,
    iterate=functools.partial(_campaign_iteration, sharded=False),
    check=_campaign_check,
)

CAMPAIGN_SHARDED = Workload(
    name="campaign-sharded",
    why=(
        "the same campaign over 2 forked shard workers: spill, manifest and merge "
        "do all their work here, and analysis and sweep read adopted .npz segments "
        "instead of memory"
    ),
    family="campaign",
    operations=_CAMPAIGN_OPERATIONS,
    iterate=functools.partial(_campaign_iteration, sharded=True),
    check=_campaign_check,
)


# ----------------------------------------------------------------------
# monitor
# ----------------------------------------------------------------------
def monitor_timeline() -> PolicyTimeline:
    return (
        PolicyTimeline()
        .onset(20, "DE", "facebook.com")
        .onset(40, "FR", "twitter.com")
        .offset(60, "DE", "facebook.com")
        .throttle(70, "BR", "youtube.com")
    )


def _monitor_iteration(seed: int, work_dir: Path, recorder: SpanRecorder) -> Iteration:
    watch = Stopwatch()
    it = Iteration(
        watch, visits=MONITOR_EPOCHS * MONITOR_VISITS,
        sweep_cells=len(MONITOR_SWEEP_BUDGETS),
    )

    def set_up() -> EncoreDeployment:
        # The scenario suites' compact world, with no pinned country.
        world = World(WorldConfig(
            seed=seed, target_list_total=30, target_list_online=24, origin_site_count=4,
        ))
        return EncoreDeployment(world, CampaignConfig(
            visits=MONITOR_VISITS, include_testbed=False, favicons_only=False,
            target_domains=TARGET_DOMAINS, seed=seed,
        ))

    # The extra set-ups are timed but never traced, so a traced iteration's
    # per-layer set-up times stay those of one set-up.
    if not recorder.active:
        for extra in range(1, MONITOR_SETUPS):
            with watch.phase(f"setup-{extra}"):
                set_up()
    with timed(watch, recorder, "setup"):
        deployment = set_up()

    # Each checkpointed epoch emits exactly one "shard" event; a NullTracer
    # instance (not the shared NULL_TRACER) carries the listener and writes
    # nothing.
    def on_event(name: str, attrs: dict) -> None:
        if name == "shard":
            it.stamps.append(clocks())

    tracer = NullTracer()
    tracer.add_listener(on_event)
    config = LongitudinalConfig(
        epochs=MONITOR_EPOCHS, visits_per_epoch=MONITOR_VISITS,
        checkpoint_dir=str(work_dir / "monitor"), tracer=tracer,
    )
    with timed(watch, recorder, "campaign"):
        started = clocks()
        result = deployment.run_longitudinal(monitor_timeline(), config)
    with timed(watch, recorder, "analysis"):
        events = result.events()
        timing = result.timing_events()
        timeline_report = result.timeline_report()
        throttle_report = result.throttle_report()
    with timed(watch, recorder, "sweep"):
        cells = AdversarySweep(executor="inline", spill_dir=str(work_dir / "sweep")).run(
            result.collection, *MONITOR_SWEEP_TARGET, MONITOR_SWEEP_BUDGETS
        )
    it.commit_latencies = _intervals([started] + it.stamps[:-1], it.stamps)
    it.outputs = {"result": result, "events": events, "timing": timing,
                  "reports": [timeline_report.quality_summary(),
                              throttle_report.quality_summary()],
                  "cells": cells}
    return it


def _monitor_check(it: Iteration) -> None:
    result, events = it.outputs["result"], it.outputs["events"]
    store = result.collection.store
    if len(it.stamps) != MONITOR_EPOCHS or len(result.epochs) != MONITOR_EPOCHS:
        it.failed_parts.add("rows")
    # The incremental monitor must agree with a cold scan of the same store.
    cold = result.detector.detect_events(
        grouped_success_counts(store, by_day=True), result.monitor.baselines
    )
    if cold != events:
        it.failed_parts.add("analysis")
    it.digests = {
        "rows": digests.store_digest(store),
        "analysis": digests.json_digest([
            digests.event_payload(events),
            digests.event_payload(it.outputs["timing"]),
            it.outputs["reports"],
        ]),
        "sweep": _sweep_digests(it.outputs["cells"]),
    }


MONITOR = Workload(
    name="monitor",
    why=(
        "the always-on monitor, 100 epochs x 1000 visits with checkpoints: ingest, "
        "seal, fold, CUSUM resume and checkpoint interleave every epoch, and "
        "per-campaign fixed costs are paid 100 times"
    ),
    family="monitor",
    operations={"rows": MONITOR_EPOCHS, "analysis": 4, "sweep": len(MONITOR_SWEEP_BUDGETS)},
    iterate=_monitor_iteration,
    check=_monitor_check,
)

WORKLOADS = {workload.name: workload for workload in (CAMPAIGN, CAMPAIGN_SHARDED, MONITOR)}
