"""Unit tests for the ``repro.obs`` telemetry layer.

Covers the clock indirection, the metrics registry, tracer record
formats (including crash-recovery and merge), the strict report loader,
and the ``python -m repro.obs`` CLI contract the CI trace gate rides.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.obs import (
    NULL_TRACER,
    Clock,
    FrozenClock,
    MetricsRegistry,
    NullTracer,
    Tracer,
    default_clock,
    progress_listener,
    set_default_clock,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.report import TraceError, diff, load_trace, summarize
from repro.obs.trace import STATUS_ABORTED


@pytest.fixture()
def frozen_clock():
    """Install a FrozenClock process-wide for the test, then restore."""
    clock = FrozenClock(start=0.0, tick=1.0)
    previous = set_default_clock(clock)
    try:
        yield clock
    finally:
        set_default_clock(previous)


# ----------------------------------------------------------------------
class TestClock:
    def test_frozen_clock_advances_on_every_read(self):
        clock = FrozenClock(start=5.0, tick=0.5)
        assert clock.monotonic() == 5.0
        assert clock.monotonic() == 5.5
        assert clock.wall() == 6.0  # wall shares the same stream

    def test_default_clock_swap_is_reversible(self):
        frozen = FrozenClock()
        previous = set_default_clock(frozen)
        try:
            assert default_clock() is frozen
        finally:
            assert set_default_clock(previous) is frozen
        assert default_clock() is previous

    def test_real_clock_monotonic_is_nondecreasing(self):
        clock = Clock()
        a = clock.monotonic()
        b = clock.monotonic()
        assert b >= a


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("rows").add(3)
        registry.counter("rows").add()
        registry.gauge("rss").set_max(10.0)
        registry.gauge("rss").set_max(4.0)  # lower values never win

        snapshot = registry.snapshot()
        assert snapshot == {"counters": {"rows": 4}, "gauges": {"rss": 10.0}}
        # JSON-ready by contract.
        json.dumps(snapshot)

    def test_update_peak_rss_records_a_positive_gauge(self):
        registry = MetricsRegistry()
        registry.update_peak_rss()
        assert registry.snapshot()["gauges"]["process.peak_rss_kb"] > 0

    def test_reset_drops_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("rows").add(1)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}}


# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_statuses(self, tmp_path, frozen_clock):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        with tracer.span("campaign", visits=10):
            with tracer.span("plan", block=0):
                pass
            with pytest.raises(RuntimeError):
                with tracer.span("execute", block=0):
                    raise RuntimeError("boom")
        tracer.close()

        trace = load_trace(path)
        assert [span.name for span in trace.roots] == ["campaign"]
        campaign = trace.roots[0]
        assert [child.name for child in campaign.children] == ["plan", "execute"]
        assert campaign.status == "ok"
        assert campaign.attrs == {"visits": 10}
        failed = campaign.children[1]
        assert failed.status == "error"
        assert "boom" in failed.error
        # FrozenClock ticks make every duration strictly positive.
        assert all(span.duration > 0 for span in trace.spans.values())

    def test_out_of_order_end_is_rejected(self, tmp_path):
        tracer = Tracer(tmp_path / "trace.jsonl")
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        with pytest.raises(ValueError, match="out of order"):
            tracer._end_span(outer.id, "ok")
        tracer.close()

    def test_events_feed_both_stream_and_listeners(self, tmp_path):
        tracer = Tracer(tmp_path / "trace.jsonl")
        seen = []
        tracer.add_listener(lambda name, attrs: seen.append((name, attrs)))
        with tracer.span("campaign"):
            tracer.event("batch", index=3)
        tracer.close()

        assert seen == [("batch", {"index": 3})]
        trace = load_trace(tmp_path / "trace.jsonl")
        assert trace.events[0]["name"] == "batch"
        assert trace.events[0]["parent"] == trace.roots[0].id

    def test_close_aborts_open_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        tracer.span("campaign").__enter__()
        tracer.span("shard.execute").__enter__()
        tracer.close()

        trace = load_trace(path)
        assert all(span.status == STATUS_ABORTED for span in trace.spans.values())

    def test_reopening_a_killed_stream_closes_orphans_and_advances_ids(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        # A killed run's stream: one closed span, one left open.
        path.write_text(
            '{"t": "B", "id": 1, "parent": 0, "name": "campaign", "ts": 1.0}\n'
            '{"t": "B", "id": 2, "parent": 1, "name": "plan", "ts": 2.0}\n'
            '{"t": "E", "id": 2, "ts": 3.0, "status": "ok"}\n'
        )
        tracer = Tracer(path)
        with tracer.span("campaign"):
            pass
        tracer.close()

        trace = load_trace(path)
        assert trace.spans[1].status == STATUS_ABORTED  # prior-run orphan
        assert trace.spans[2].status == "ok"
        assert len(trace.spans) == 3  # the new span took a fresh id

    def test_record_metrics_snapshots_into_the_stream(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("store.rows_ingested").add(7)
        tracer = Tracer(tmp_path / "trace.jsonl")
        tracer.record_metrics(registry=registry, scope="shard-000")
        tracer.close()

        trace = load_trace(tmp_path / "trace.jsonl")
        record = trace.metrics[0]
        assert record["scope"] == "shard-000"
        assert record["metrics"]["counters"]["store.rows_ingested"] == 7

    def test_records_are_written_with_sorted_keys(self, tmp_path, frozen_clock):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        with tracer.span("campaign", visits=1):
            pass
        tracer.close()
        for line in path.read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)


class TestAbsorbFile:
    def test_absorb_preserves_parentage_under_a_new_parent(self, tmp_path):
        child_path = tmp_path / "worker" / "trace.jsonl"
        child = Tracer(child_path)
        with child.span("shard.execute", shard=0):
            with child.span("plan", block=0):
                pass
            child.event("batch", index=0)
        child.close()

        parent = Tracer(tmp_path / "campaign.jsonl")
        with parent.span("shard", shard=0) as span:
            absorbed = parent.absorb_file(child_path, parent_id=span.id)
        parent.close()
        assert absorbed == 5  # 2 B + 2 E + 1 I

        trace = load_trace(tmp_path / "campaign.jsonl")
        shard = trace.roots[0]
        assert [c.name for c in shard.children] == ["shard.execute"]
        assert [c.name for c in shard.children[0].children] == ["plan"]
        assert trace.events[0]["parent"] == shard.children[0].id

    def test_absorb_closes_killed_workers_open_spans(self, tmp_path):
        child_path = tmp_path / "trace.jsonl"
        # Killed mid-span: open B plus a half-written trailing record.
        child_path.write_text(
            '{"t": "B", "id": 1, "parent": 0, "name": "shard.execute", "ts": 1.0}\n'
            '{"t": "B", "id": 2, "parent": 1, "name": "execute", "ts": 2.0}\n'
            '{"t": "E", "id": 2'  # no closing brace: killed mid-write
        )
        parent = Tracer(tmp_path / "campaign.jsonl")
        with parent.span("shard.aborted", shard=1) as span:
            parent.absorb_file(child_path, parent_id=span.id)
        parent.close()

        trace = load_trace(tmp_path / "campaign.jsonl")
        wrapper = trace.roots[0]
        assert wrapper.status == "ok"
        execute = wrapper.children[0]
        assert execute.name == "shard.execute"
        assert execute.status == STATUS_ABORTED
        assert execute.children[0].status == STATUS_ABORTED

    def test_absorb_rejects_malformed_mid_stream_lines(self, tmp_path):
        bad = tmp_path / "trace.jsonl"
        bad.write_text("not json at all\n" '{"t": "B", "id": 1, "ts": 1.0}\n')
        parent = Tracer(tmp_path / "campaign.jsonl")
        with pytest.raises(ValueError, match="malformed"):
            parent.absorb_file(bad)
        parent.close()

    def test_absorb_missing_file_is_a_noop(self, tmp_path):
        parent = Tracer(tmp_path / "campaign.jsonl")
        assert parent.absorb_file(tmp_path / "nope.jsonl") == 0
        parent.close()


class TestNullTracer:
    def test_null_tracer_is_inert_but_dispatches_listeners(self):
        tracer = NullTracer()
        seen = []
        tracer.add_listener(lambda name, attrs: seen.append((name, attrs)))
        with tracer.span("campaign", visits=5) as span:
            tracer.event("batch", index=1)
        assert span.id == 0
        assert seen == [("batch", {"index": 1})]
        assert tracer.absorb_file(Path("nowhere.jsonl")) == 0
        tracer.record_metrics()
        tracer.close()

    def test_module_singleton_is_disabled(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        assert Tracer.enabled

    def test_progress_listener_rebuilds_the_dataclass(self):
        @dataclasses.dataclass
        class Tick:
            index: int
            total: int

        seen = []
        listener = progress_listener(seen.append, "batch", Tick)
        listener("batch", {"index": 1, "total": 4})
        listener("shard", {"anything": "else"})  # filtered by name
        assert seen == [Tick(index=1, total=4)]


# ----------------------------------------------------------------------
class TestReportLoader:
    def write(self, tmp_path, text):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="no such trace"):
            load_trace(tmp_path / "absent.jsonl")

    def test_malformed_json(self, tmp_path):
        path = self.write(tmp_path, "{broken\n")
        with pytest.raises(TraceError, match="malformed JSON"):
            load_trace(path)

    def test_duplicate_span_id(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"t": "B", "id": 1, "ts": 1.0, "name": "a"}\n'
            '{"t": "B", "id": 1, "ts": 2.0, "name": "b"}\n',
        )
        with pytest.raises(TraceError, match="duplicate span id"):
            load_trace(path)

    def test_end_for_unknown_span(self, tmp_path):
        path = self.write(tmp_path, '{"t": "E", "id": 9, "ts": 1.0}\n')
        with pytest.raises(TraceError, match="unknown span"):
            load_trace(path)

    def test_unclosed_span(self, tmp_path):
        path = self.write(tmp_path, '{"t": "B", "id": 1, "ts": 1.0, "name": "a"}\n')
        with pytest.raises(TraceError, match="unclosed"):
            load_trace(path)

    def test_end_before_start(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"t": "B", "id": 1, "ts": 5.0, "name": "a"}\n'
            '{"t": "E", "id": 1, "ts": 1.0, "status": "ok"}\n',
        )
        with pytest.raises(TraceError, match="ends before it starts"):
            load_trace(path)


class TestSummarize:
    def build_trace(self, path):
        """A deterministic two-shard campaign trace via the obs API alone."""
        tracer = Tracer(path, clock=FrozenClock())
        with tracer.span("campaign", visits=100, shards=2):
            for shard in range(2):
                with tracer.span("shard", shard=shard):
                    with tracer.span("shard.execute", shard=shard):
                        with tracer.span("plan", block=shard):
                            pass
                        with tracer.span("execute", block=shard):
                            pass
                tracer.event("shard", shard_index=shard)
            with tracer.span("epoch", epoch=0):
                pass
        registry = MetricsRegistry()
        registry.counter("store.rows_ingested").add(100)
        registry.gauge("process.peak_rss_kb").set_max(12345.0)
        tracer._write(  # shard-scope snapshot without the live-RSS gauge
            {
                "t": "M",
                "ts": 0.0,
                "scope": "shard-000",
                "metrics": {"gauges": {"process.peak_rss_kb": 9999.0}},
            }
        )
        tracer._write(
            {
                "t": "M",
                "ts": 0.0,
                "scope": "campaign",
                "metrics": registry.snapshot(),
            }
        )
        tracer.close()
        return load_trace(path)

    def test_summary_shape(self, tmp_path):
        summary = summarize(self.build_trace(tmp_path / "trace.jsonl"))
        assert summary["totals"]["spans"] == 10
        assert summary["totals"]["events"] == 2
        assert summary["totals"]["aborted_spans"] == 0
        assert summary["phases"]["plan"]["count"] == 2
        assert summary["phases"]["shard.execute"]["count"] == 2
        assert [s["shard"] for s in summary["shards"]] == [0, 1]
        # Critical path descends the longest chain under each shard span
        # (FrozenClock ties break toward the earlier span id).
        assert [step["name"] for step in summary["shards"][0]["critical_path"]] == [
            "shard.execute",
            "plan",
        ]
        assert summary["shards"][0]["peak_rss_kb"] == 9999.0
        assert summary["epochs"] == [
            {"epoch": 0, "duration_s": 1.0, "status": "ok"}
        ]
        assert summary["metrics"]["counters"]["store.rows_ingested"] == 100

    def test_diff_reports_phase_deltas(self, tmp_path):
        before = self.build_trace(tmp_path / "before.jsonl")
        after = self.build_trace(tmp_path / "after.jsonl")
        result = diff(before, after)
        plan = result["phases"]["plan"]
        assert plan["before_s"] == plan["after_s"]
        assert plan["delta_s"] == 0.0
        assert plan["ratio"] == 1.0


# ----------------------------------------------------------------------
class TestCli:
    def good_trace(self, tmp_path, name="trace.jsonl"):
        path = tmp_path / name
        tracer = Tracer(path, clock=FrozenClock())
        with tracer.span("campaign", visits=1):
            with tracer.span("plan", block=0):
                pass
        tracer.close()
        return path

    def test_summarize_json_exit_zero(self, tmp_path, capsys):
        path = self.good_trace(tmp_path)
        assert obs_main(["summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["spans"] == 2
        assert "plan" in payload["phases"]

    def test_summarize_renders_text_by_default(self, tmp_path, capsys):
        path = self.good_trace(tmp_path)
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace: 2 spans")
        assert "plan" in out

    def test_malformed_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": "B", "id": 1, "ts": 1.0, "name": "open"}\n')
        assert obs_main(["summarize", str(bad)]) == 1
        assert "unclosed" in capsys.readouterr().err

    def test_diff_command(self, tmp_path, capsys):
        a = self.good_trace(tmp_path, "a.jsonl")
        b = self.good_trace(tmp_path, "b.jsonl")
        assert obs_main(["diff", str(a), str(b)]) == 0
        assert "plan" in capsys.readouterr().out

    def test_out_writes_payload_atomically(self, tmp_path, capsys):
        path = self.good_trace(tmp_path)
        out = tmp_path / "summary.json"
        assert obs_main(["summarize", str(path), "--json", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written == json.loads(capsys.readouterr().out)

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_frozen_clock_makes_summaries_byte_identical(self, tmp_path, capsys):
        # Two identical runs under a FrozenClock: the trace streams and the
        # CLI's --json output must match byte for byte.
        a = self.good_trace(tmp_path, "a.jsonl")
        b = self.good_trace(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert obs_main(["summarize", str(a), "--json"]) == 0
        first = capsys.readouterr().out
        assert obs_main(["summarize", str(b), "--json"]) == 0
        assert capsys.readouterr().out == first
