"""Telemetry is strictly write-only: tracing must never change results.

The observer-effect contract (docs/observability.md): running any campaign
with tracing enabled leaves every measurement row, censorship event, and
progress callback bit-identical to the same campaign with tracing off.
These tests pin that equivalence across the batch runner, the sharded
executor (including kill/resume), and the longitudinal engine — plus the
well-formedness of the merged trace streams the runs leave behind.
"""

import dataclasses
import json

import numpy as np

from repro.censor.policy import PolicyTimeline
from repro.core.longitudinal import LongitudinalConfig, LongitudinalEngine
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.query import grouped_success_counts
from repro.core.shard import MANIFEST_NAME
from repro.obs.report import load_trace, summarize
from repro.obs.trace import TRACE_FILENAME, Tracer
from repro.population.world import World, WorldConfig


def small_world(seed=7):
    return World(
        WorldConfig(seed=seed, target_list_total=30, target_list_online=24, origin_site_count=4)
    )


def sharded_deployment(seed=11, visits=900):
    config = CampaignConfig(
        visits=visits,
        include_testbed=True,
        testbed_fraction=0.3,
        plan_block_visits=128,
        seed=seed,
    )
    return EncoreDeployment(small_world(), config)


def longitudinal_deployment(seed=11, country_code="DE"):
    config = CampaignConfig(
        visits=200,
        include_testbed=False,
        favicons_only=True,
        target_domains=("facebook.com", "youtube.com", "twitter.com"),
        seed=seed,
        country_code=country_code,
    )
    return EncoreDeployment(small_world(), config)


def progress_key(progress):
    """Every progress field except the observational wall-clock duration."""
    payload = dataclasses.asdict(progress)
    payload.pop("duration_s")
    return payload


def measurement_key(result):
    return [
        (
            m.measurement_id, str(m.target_url), m.task_type.value, m.country_code,
            m.outcome.value, m.elapsed_ms, m.probe_time_ms, m.origin_domain,
            m.day, m.client_ip, m.isp, m.browser_family, m.is_automated,
        )
        for m in result.collection.store.rows()
    ]


def assert_well_formed(trace):
    """Structural contract of a merged campaign trace."""
    for span in trace.spans.values():
        assert span.status in ("ok", "error", "aborted")
        assert span.end is not None
        if span.parent:
            assert span.parent in trace.spans


# ----------------------------------------------------------------------
class TestTracedRunsAreIdentical:
    def test_sharded_campaign_rows_identical_with_tracing(self, tmp_path):
        untraced = sharded_deployment().run_campaign(
            mode="sharded", num_shards=3, shard_executor="inline",
            worker_spill_dir=str(tmp_path / "untraced"),
        )

        tracer = Tracer(tmp_path / TRACE_FILENAME)
        traced = sharded_deployment().run_campaign(
            mode="sharded", num_shards=3, shard_executor="inline",
            worker_spill_dir=str(tmp_path / "traced"), tracer=tracer,
        )
        tracer.close()

        assert measurement_key(traced) == measurement_key(untraced)
        assert (
            traced.collection.unreachable_submissions
            == untraced.collection.unreachable_submissions
        )

        trace = load_trace(tmp_path / TRACE_FILENAME)
        assert_well_formed(trace)
        assert [root.name for root in trace.roots] == ["campaign"]
        summary = summarize(trace)
        assert summary["totals"]["aborted_spans"] == 0
        assert [s["shard"] for s in summary["shards"]] == [0, 1, 2]
        for phase in ("plan", "execute", "ingest", "seal", "manifest", "adopt"):
            assert summary["phases"][phase]["count"] >= 1, phase
        assert summary["metrics"]["counters"]["store.rows_ingested"] > 0
        assert summary["metrics"]["gauges"]["process.peak_rss_kb"] > 0
        # Every inline worker recorded its own metrics scope.
        assert all(s["peak_rss_kb"] and s["peak_rss_kb"] > 0 for s in summary["shards"])

    def test_progress_stream_identical_with_tracing(self, tmp_path):
        def run(spill, tracer=None):
            seen = []
            result = sharded_deployment().run_campaign(
                mode="sharded",
                num_shards=3,
                shard_executor="inline",
                worker_spill_dir=str(tmp_path / spill),
                progress=seen.append,
                tracer=tracer,
            )
            return result, [progress_key(p) for p in seen]

        untraced_result, untraced_progress = run("untraced")
        tracer = Tracer(tmp_path / TRACE_FILENAME)
        traced_result, traced_progress = run("traced", tracer)
        tracer.close()

        # The legacy callback rides the trace event stream: same payloads
        # in the same order either way (the trailing wall-clock duration
        # field is dropped — it is observational, not simulated).
        assert traced_progress == untraced_progress
        assert measurement_key(traced_result) == measurement_key(untraced_result)

        # The same payloads also landed in the trace as "shard" events.
        trace = load_trace(tmp_path / TRACE_FILENAME)
        shard_events = [e for e in trace.events if e["name"] == "shard"]
        assert len(shard_events) == 3
        assert [e["attrs"]["shard_index"] for e in shard_events] == [
            p["shard_index"] for p in traced_progress
        ]

    def test_batch_campaign_rows_identical_with_tracing(self, tmp_path):
        def run(tracer=None):
            seen = []
            deployment = sharded_deployment()
            result = deployment.run_campaign(
                mode="batch", progress=seen.append, tracer=tracer
            )
            return result, [progress_key(p) for p in seen]

        untraced_result, untraced_progress = run()
        tracer = Tracer(tmp_path / TRACE_FILENAME)
        traced_result, traced_progress = run(tracer)
        tracer.close()

        assert traced_progress == untraced_progress
        assert measurement_key(traced_result) == measurement_key(untraced_result)
        trace = load_trace(tmp_path / TRACE_FILENAME)
        assert_well_formed(trace)
        batch_events = [e for e in trace.events if e["name"] == "batch"]
        assert len(batch_events) == len(traced_progress)


# ----------------------------------------------------------------------
class TestLongitudinalEquivalence:
    TIMELINE_DAY = 2

    def run_engine(self, tmp_path, tag, trace_tag=None, epochs=4):
        """A checkpointed run under ``ckpt-<tag>``, traced into
        ``trace-<trace_tag>`` by a tracer this test opens and closes."""
        timeline = PolicyTimeline().onset(self.TIMELINE_DAY, "DE", "facebook.com")
        tracer = (
            Tracer(tmp_path / f"trace-{trace_tag}" / TRACE_FILENAME)
            if trace_tag is not None
            else None
        )
        config = LongitudinalConfig(
            epochs=epochs,
            visits_per_epoch=150,
            checkpoint_dir=str(tmp_path / f"ckpt-{tag}"),
            tracer=tracer,
        )
        try:
            result = LongitudinalEngine(longitudinal_deployment(), timeline, config).run()
        finally:
            if tracer is not None:
                tracer.close()
        # The incremental events are a cold scan's of the same store.
        assert result.events() == result.detector.detect_events(
            grouped_success_counts(result.collection.store, by_day=True),
            result.monitor.baselines,
        )
        return result

    def test_traced_run_row_and_event_identical(self, tmp_path):
        untraced = self.run_engine(tmp_path, "off")
        traced = self.run_engine(tmp_path, "on", trace_tag="on")

        assert [dataclasses.astuple(e) for e in traced.events()] == [
            dataclasses.astuple(e) for e in untraced.events()
        ]
        a, b = untraced.collection.store, traced.collection.store
        assert len(a) == len(b)
        for column in ("measurement_id", "day", "outcome", "domain", "country"):
            assert np.array_equal(a.column(column), b.column(column)), column

        trace = load_trace(tmp_path / "trace-on" / TRACE_FILENAME)
        assert_well_formed(trace)
        summary = summarize(trace)
        assert [e["epoch"] for e in summary["epochs"]] == [0, 1, 2, 3]
        for phase in ("longitudinal", "epoch", "campaign", "seal", "detect",
                      "plan", "execute", "ingest"):
            assert summary["phases"][phase]["count"] >= 1, phase
        assert summary["metrics"]["counters"]["longitudinal.epochs_run"] >= 4

    def test_kill_and_resume_mid_epoch_stays_identical(self, tmp_path):
        untraced = self.run_engine(tmp_path, "ref")

        # First traced attempt "dies" after epoch 1: run only 2 epochs.
        self.run_engine(tmp_path, "killed", trace_tag="killed", epochs=2)
        # Resume from the same checkpoints and trace stream: epochs 0-1
        # are adopted, epochs 2-3 execute fresh, the tracer appends.
        resumed = self.run_engine(tmp_path, "killed", trace_tag="killed")
        trace_dir = tmp_path / "trace-killed"

        assert [dataclasses.astuple(e) for e in resumed.events()] == [
            dataclasses.astuple(e) for e in untraced.events()
        ]
        a, b = untraced.collection.store, resumed.collection.store
        assert len(a) == len(b)
        for column in ("measurement_id", "day", "outcome", "domain", "country"):
            assert np.array_equal(a.column(column), b.column(column)), column

        # The appended stream is still one well-formed trace; the second
        # attempt ran all four epochs itself (checkpoints carry rows, so
        # resumed epochs still re-run their campaigns).
        trace = load_trace(trace_dir / TRACE_FILENAME)
        assert_well_formed(trace)
        summary = summarize(trace)
        # Both attempts' epoch spans are present (summarize orders them by
        # epoch number): 0 and 1 appear twice, 2 and 3 only in the resume.
        assert [e["epoch"] for e in summary["epochs"]] == [0, 0, 1, 1, 2, 3]


# ----------------------------------------------------------------------
class TestKilledWorkerTraces:
    def test_orphan_worker_trace_is_salvaged_as_aborted(self, tmp_path):
        reference = sharded_deployment().run_campaign(
            mode="sharded", num_shards=3, shard_executor="inline",
            worker_spill_dir=str(tmp_path / "reference"),
        )

        spill = tmp_path / "spill"
        tracer = Tracer(tmp_path / "first.jsonl")
        sharded_deployment().run_campaign(
            mode="sharded",
            num_shards=3,
            shard_executor="inline",
            worker_spill_dir=str(spill),
            tracer=tracer,
        )
        tracer.close()

        # Kill one shard after the fact: drop its manifest (the commit
        # marker) and leave behind the partial trace of a dead attempt —
        # an open span plus a half-written record.
        victim = sorted(spill.rglob("shard-*"))[1]
        (victim / MANIFEST_NAME).unlink()
        (victim / TRACE_FILENAME).write_text(
            json.dumps(
                {"t": "B", "id": 1, "parent": 0, "name": "shard.execute",
                 "ts": 0.0, "attrs": {"shard": 1}}
            )
            + "\n"
            + '{"t": "E", "id": 1'  # killed mid-write
        )

        tracer = Tracer(tmp_path / "resume.jsonl")
        resumed = sharded_deployment().run_campaign(
            mode="sharded",
            num_shards=3,
            shard_executor="inline",
            worker_spill_dir=str(spill),
            tracer=tracer,
        )
        tracer.close()

        assert measurement_key(resumed) == measurement_key(reference)

        trace = load_trace(tmp_path / "resume.jsonl")
        assert_well_formed(trace)
        aborted_wrappers = [
            s for s in trace.spans.values() if s.name == "shard.aborted"
        ]
        assert [s.attrs.get("shard") for s in aborted_wrappers] == [1]
        # The dead attempt's open span was closed as aborted under the
        # wrapper, and the evidence survived the retry's directory wipe.
        assert [c.status for c in aborted_wrappers[0].children] == ["aborted"]
        summary = summarize(trace)
        assert summary["totals"]["aborted_spans"] == 1
        # The re-executed shard is not marked resumed; the two survivors are.
        assert [(s["shard"], s["resumed"]) for s in summary["shards"]] == [
            (0, True), (1, False), (2, True)
        ]
