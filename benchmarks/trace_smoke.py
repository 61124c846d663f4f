#!/usr/bin/env python
"""Run a traced sharded smoke campaign and write its merged span stream.

The campaign is small: 600 visits over two inline shards, testbed
included, committed into a temporary directory that is removed when the
campaign ends.  Its merged stream lands in ``trace-smoke/trace.jsonl``
under the working directory.  The trace gate is the step after this one,
``python -m repro.obs summarize trace-smoke/trace.jsonl --json``, which
exits 1 on a malformed stream (docs/observability.md).

    PYTHONPATH=src python benchmarks/trace_smoke.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.obs import Tracer
from repro.population.world import World, WorldConfig


def main() -> None:
    world = World(WorldConfig(
        seed=7, target_list_total=30, target_list_online=24,
        origin_site_count=4,
    ))
    config = CampaignConfig(
        visits=600, include_testbed=True, testbed_fraction=0.3,
        plan_block_visits=128, seed=11,
    )
    tracer = Tracer(Path("trace-smoke") / "trace.jsonl")
    with tempfile.TemporaryDirectory() as spill_dir:
        EncoreDeployment(world, config).run_campaign(
            mode="sharded", num_shards=2, shard_executor="inline",
            worker_spill_dir=spill_dir, tracer=tracer,
        )
    tracer.close()


if __name__ == "__main__":
    main()
