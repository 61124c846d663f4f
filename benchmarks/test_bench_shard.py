"""Benchmark — sharded multi-process campaign vs single-process batch.

``mode="sharded"`` exists to scale a campaign with the machine: N worker
processes execute disjoint sets of planning blocks and the parent merges
their spilled segments by adoption.  This benchmark runs the §7 scale
configuration at 50k visits both ways, pins that the merged campaign is
identical to the single-process one, and — on hosts with enough cores to
make the claim meaningful — asserts the wall-clock speedup.

Results are recorded in ``benchmarks/BENCH_shard.json`` so regressions show
up as a diff, not just a failed assertion.  (The ≥2x assertion is gated on
``os.cpu_count() >= NUM_SHARDS``: with fewer cores than workers the ratio
measures the scheduler, not the subsystem.  On such hosts the test still
runs, records the JSON, and pins batch/sharded equality — then *skips* the
speedup gate explicitly so CI logs show why it didn't apply.)
"""

from __future__ import annotations

import gc
import os
import time
from pathlib import Path

import pytest

from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.population.world import World, WorldConfig

VISITS = 50_000
NUM_SHARDS = 4
MIN_SPEEDUP = 2.0
REPORT_PATH = Path(__file__).parent / "BENCH_shard.json"


def build_deployment() -> EncoreDeployment:
    world = World(WorldConfig(seed=2018))
    config = CampaignConfig(
        visits=VISITS,
        include_testbed=True,
        testbed_fraction=0.3,
        favicons_only=True,
        seed=2018,
    )
    return EncoreDeployment(world, config)


def timed_batch() -> tuple[float, int]:
    deployment = build_deployment()
    gc.collect()
    started = time.perf_counter()
    result = deployment.run_campaign()
    return time.perf_counter() - started, len(result.collection)


def timed_sharded(spill_dir: Path) -> tuple[float, int]:
    deployment = build_deployment()
    gc.collect()
    started = time.perf_counter()
    result = deployment.run_campaign(
        mode="sharded", num_shards=NUM_SHARDS, worker_spill_dir=str(spill_dir)
    )
    return time.perf_counter() - started, len(result.collection)


class TestShardThroughput:
    def test_sharded_campaign_speedup(self, bench_report_writer, tmp_path):
        cpu_count = os.cpu_count() or 1
        batch_runs = [timed_batch() for _ in range(2)]
        batch_s = min(elapsed for elapsed, _ in batch_runs)
        batch_measurements = batch_runs[0][1]
        sharded_runs = [timed_sharded(tmp_path / f"run-{run}") for run in range(2)]
        sharded_s = min(elapsed for elapsed, _ in sharded_runs)
        sharded_measurements = sharded_runs[0][1]

        speedup_asserted = cpu_count >= NUM_SHARDS
        report = {
            "visits": VISITS,
            "num_shards": NUM_SHARDS,
            "cpu_count": cpu_count,
            "batch_seconds": round(batch_s, 3),
            "sharded_seconds": round(sharded_s, 3),
            "batch_visits_per_second": round(VISITS / batch_s, 1),
            "sharded_visits_per_second": round(VISITS / sharded_s, 1),
            "speedup": round(batch_s / sharded_s, 2),
            "min_speedup": MIN_SPEEDUP,
            "speedup_asserted": speedup_asserted,
            "batch_measurements": batch_measurements,
            "sharded_measurements": sharded_measurements,
        }
        bench_report_writer(
            REPORT_PATH, report, rows=sharded_measurements, seconds=sharded_s
        )

        print()
        print(f"Sharded campaign throughput (50k-visit §7 scale, {NUM_SHARDS} workers):")
        for key, value in report.items():
            print(f"  {key:26s} {value}")

        # Sharding must never change the campaign (the equivalence suite
        # pins row-level identity in depth).
        assert sharded_measurements == batch_measurements
        if not speedup_asserted:
            pytest.skip(
                f"speedup gate needs >= {NUM_SHARDS} cores, host has "
                f"{cpu_count}; measured {report['speedup']}x and recorded it "
                f"in {REPORT_PATH.name} (equality of batch vs sharded "
                f"campaigns was still asserted)"
            )
        assert report["speedup"] >= MIN_SPEEDUP, report
