"""Sharded campaign: one campaign, many worker processes, one merged store.

``mode="sharded"`` partitions a campaign's planning blocks across a pool of
worker processes.  Each worker drives the vectorized batch executor over its
blocks and seals its measurements as ``.npz`` spill segments; the parent
merges every worker's segments into one ``MeasurementStore`` by segment
adoption (no row is ever pickled across a process boundary or re-copied on
merge).  Because every block's randomness derives from the campaign seed
alone, the merged campaign is **identical** to a single-process
``mode="batch"`` run — sharding changes wall-clock, never results.

The per-shard manifests under ``worker_spill_dir`` double as checkpoints: a
re-run pointed at the same directory adopts finished shards and re-executes
only missing ones.

Run with::

    python examples/sharded_campaign.py

It exits non-zero when the merged campaign differs from the batch one.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from repro import CampaignConfig, EncoreDeployment, World, WorldConfig
from repro.analysis.reports import format_table


def build_deployment(seed: int, visits: int) -> EncoreDeployment:
    # Identical worlds + configs, so the two modes below run the *same*
    # campaign and the comparison is purely about execution strategy.
    world = World(WorldConfig(seed=seed, target_list_total=30, target_list_online=24,
                              origin_site_count=6))
    config = CampaignConfig(
        visits=visits,
        include_testbed=False,
        favicons_only=True,
        target_domains=("facebook.com", "youtube.com", "twitter.com"),
        seed=seed,
    )
    return EncoreDeployment(world, config)


def main(spill_dir: str, seed: int = 3, visits: int = 20_000) -> bool:
    """Run both campaigns and report; True when they are identical."""
    num_shards = min(4, os.cpu_count() or 1)

    print(f"Running {visits} visits single-process (mode='batch')...")
    started = time.perf_counter()
    batch = build_deployment(seed, visits).run_campaign()
    batch_s = time.perf_counter() - started

    print(f"Running the same campaign across {num_shards} worker processes...")
    shard_events = []
    deployment = build_deployment(seed, visits)
    started = time.perf_counter()
    sharded = deployment.run_campaign(
        mode="sharded",
        num_shards=num_shards,
        worker_spill_dir=spill_dir,
        progress=shard_events.append,
    )
    sharded_s = time.perf_counter() - started

    print()
    print(format_table(
        ["shard", "blocks", "visits so far", "measurements", "seconds"],
        [
            [p.shard_index, p.blocks_completed, p.visits_completed,
             p.measurements_added, f"{p.duration_s:.2f}"]
            for p in shard_events
        ],
    ))

    # The merged store answers queries exactly like the single-process one.
    merged = sharded.collection
    print()
    print(f"batch:   {len(batch.collection)} measurements in {batch_s:.2f}s")
    print(f"sharded: {len(merged)} measurements in {sharded_s:.2f}s "
          f"({num_shards} workers, spill segments under {spill_dir})")
    identical = (
        len(batch.collection) == len(merged)
        and batch.collection.success_counts() == merged.success_counts()
    )
    print(f"identical campaigns: {identical}")

    print()
    print("Detections over the merged store:")
    report = sharded.detect()
    for detection in sorted(report.detections, key=lambda d: (d.domain, d.country_code)):
        print(f"  {detection.domain:14s} filtered in {detection.country_code} "
              f"(p={detection.p_value:.2e})")
    return identical


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="encore-sharded-example-") as spill_dir:
        identical = main(spill_dir)
    sys.exit(0 if identical else 1)
