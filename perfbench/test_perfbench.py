"""Tiny-input tests of the benchmark's own machinery (tracing and digests)."""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path

import numpy as np

import digests
import layers
from layers import Patches, Span, SpanRecorder
from repro import CampaignConfig, EncoreDeployment, World, WorldConfig
from repro.core.store import DictColumn, MeasurementStore
from repro.core.tasks import TaskOutcome, TaskType
from repro.web.url import URL


def test_self_time_subtracts_same_process_children_only():
    spans = [
        Span(1, "campaign", 0.0, 10.0, pid=1),
        Span(2, "runner.plan", 1.0, 4.0, parent=1, pid=1),
        Span(3, "runner.execute", 4.0, 6.0, parent=1, pid=1),
        # A worker span under the campaign runs beside it, not inside it.
        Span(4, "runner.execute", 0.5, 9.5, parent=1, pid=2),
    ]
    assert layers.self_times(spans) == {1: 5.0, 2: 3.0, 3: 2.0, 4: 9.0}
    totals = layers.layer_totals(spans)
    assert totals["runner.execute"]["s"] == 11.0
    assert totals["runner.execute"]["calls"] == 2


def test_nested_same_layer_call_counts_once():
    spans = [
        Span(1, "inference.binomial", 0.0, 3.0),
        Span(2, "inference.binomial", 1.0, 2.0, parent=1, counts={"cells": 7}),
    ]
    total = layers.layer_totals(spans)["inference.binomial"]
    assert (total["s"], total["calls"], total["cells"]) == (3.0, 1, 7)


def test_epoch_self_time_removes_child_layers_per_interval():
    phase = Span(1, "campaign", 0.0, 3.0)
    spans = [
        phase,
        Span(2, "shard.execute_shard", 0.2, 0.8, parent=1),
        Span(3, "inference.checkpoint", 1.1, 1.3, parent=1),
    ]
    result = layers.epoch_self_times(spans, phase, [1.0, 2.0])
    assert np.allclose(result, [0.4, 0.8])


def test_patches_wrap_every_binding_and_restore_them():
    query = importlib.import_module("repro.core.query")
    core = importlib.import_module("repro.core")
    store_cls = importlib.import_module("repro.core.store").MeasurementStore
    original_query = query.run_query
    original_spill = store_cls.__dict__["spill"]
    patches = Patches(SpanRecorder())
    patches.install()
    try:
        assert query.run_query is not original_query
        assert core.run_query is query.run_query
        assert store_cls.__dict__["spill"] is not original_spill
    finally:
        patches.uninstall()
    assert query.run_query is original_query and core.run_query is original_query
    assert store_cls.__dict__["spill"] is original_spill


def _store(order: list[int]) -> MeasurementStore:
    domains = ("a.org", "b.org")
    countries = ("DE", "FR")
    urls = tuple(URL.parse(f"http://{d}/favicon.ico") for d in domains)
    rows = np.asarray(order)
    store = MeasurementStore()
    store.append_columns(
        measurement_id=[f"m{i}" for i in rows],
        task_type=DictColumn((TaskType.IMAGE,), np.zeros(len(rows), dtype=np.int64)),
        target_url=[urls[i % 2] for i in rows],
        target_domain=[domains[i % 2] for i in rows],
        outcome=[TaskOutcome.SUCCESS if i % 3 else TaskOutcome.FAILURE for i in rows],
        elapsed_ms=rows * 1.5,
        client_ip=[f"10.0.0.{i}" for i in rows],
        country_code=[countries[i // 2 % 2] for i in rows],
        isp=["isp"] * len(rows),
        browser_family=["chrome"] * len(rows),
        origin_domain=[None] * len(rows),
        day=rows % 4,
    )
    return store


def test_store_digest_ignores_value_table_order_not_row_order():
    plain = _store([0, 1, 2])
    # The same rows, adopted into a store whose domain table runs the other way.
    merged = MeasurementStore()
    merged.merge_value_table("domain", ["b.org", "a.org"])
    merged.adopt_segments_from(_store([0, 1, 2]))
    assert list(merged.domain_values) != list(plain.domain_values)
    assert digests.store_digest(merged) == digests.store_digest(plain)
    assert digests.store_digest(_store([0, 1])) != digests.store_digest(_store([1, 0]))


def test_benchmark_json_names_what_the_run_prints():
    import run
    import workloads

    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    counters = dict.fromkeys(layers.REGISTRY_COUNTERS, 0)
    names = set(layers.per_layer_metrics([], counters, 1, []))
    names |= {"shard.worker_peak_rss_mb", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_mismatches_name_the_differing_parts():
    ours = {"rows": "a", "analysis": "b", "sweep": ["x", "y"]}
    assert digests.mismatches(ours, dict(ours)) == set()
    theirs = {"rows": "a", "analysis": "c", "sweep": ["x", "z"]}
    assert digests.mismatches(ours, theirs) == {"analysis", "sweep[1]"}


def test_stopwatch_scales_each_phase_by_the_reference_around_it(monkeypatch):
    import speed

    references = iter([0.060, 0.030, 0.015])
    monkeypatch.setattr(speed, "reference_s", lambda: next(references))
    watch = speed.Stopwatch()
    for name in ("slow", "fast"):
        with watch.phase(name):
            pass
        watch.raw_s[name], watch.cpu_s[name] = 1.0, 0.5
    # Each phase uses the mean of the reference runs just before and after
    # it, and only the phase's CPU time is scaled.
    assert watch.scale["slow"] == speed.REFERENCE_S / 0.045
    assert watch.scaled_s("fast") == 0.5 * speed.REFERENCE_S / 0.0225 + 0.5
    assert speed.scaled(1.0, 1.2, 2.0) == 2.0


def test_digest_cache_is_per_source_and_only_for_shared_families(tmp_path):
    import run
    import stamp
    import workloads

    campaign = run.Run(workloads.CAMPAIGN, 1, 1.0, False, tmp_path)
    assert campaign.digest_cache.name == stamp.source_digest(run.ROOT)
    assert run.Run(workloads.MONITOR, 1, 1.0, False, tmp_path).digest_cache is None

    (tmp_path / "src").mkdir()
    module = tmp_path / "src" / "a.py"
    module.write_text("x = 1\n")
    before = stamp.source_digest(tmp_path)
    module.write_text("x = 2\n")
    assert stamp.source_digest(tmp_path) != before


def test_iterations_cycle_through_worlds_derived_from_the_seed(tmp_path):
    import run
    import workloads

    bench = run.Run(workloads.MONITOR, 7, 1.0, True, tmp_path)
    seeds = []
    for _ in range(run.WORLDS_PER_RUN + 1):
        seeds.append(bench.world_seed(traced=False))
        bench.untraced.append(None)
    assert seeds[0] == 7 and seeds[-1] == 7
    assert len(set(seeds)) == run.WORLDS_PER_RUN
    # Traced iterations count on their own, so they see the same worlds.
    assert bench.world_seed(traced=True) == 7


def _compact(seed: int) -> EncoreDeployment:
    world = World(WorldConfig(
        seed=seed, target_list_total=30, target_list_online=24, origin_site_count=4,
    ))
    return EncoreDeployment(world, CampaignConfig(visits=4096, seed=seed))


def test_traced_sharded_campaign_ships_worker_spans(tmp_path):
    batch = _compact(3).run_campaign(mode="batch")
    recorder = SpanRecorder()
    recorder.worker_dir = tmp_path / "workers"
    patches = Patches(recorder)
    patches.install()
    recorder.active = True
    try:
        with recorder.phase("campaign") as campaign:
            sharded = _compact(3).run_campaign(
                mode="sharded", num_shards=2, shard_executor="process",
                worker_spill_dir=str(tmp_path / "shards"),
            )
    finally:
        recorder.active = False
        patches.uninstall()
    files, counters = layers.collect_worker_spans(recorder, campaign.id)
    assert files == 2
    assert counters["runner.blocks_planned"] == 2
    worker_names = {span.name for span in recorder.spans if span.pid != os.getpid()}
    assert {"shard.execute_shard", "runner.execute", "store.spill"} <= worker_names
    assert any(span.name == "shard.merge" for span in recorder.spans)
    assert digests.store_digest(sharded.collection.store) == digests.store_digest(
        batch.collection.store
    )
