"""Adversarial quality suites: §8 poisoning budgets against the defences.

Both suites run an honest detection campaign, then drive an
:class:`~repro.core.robustness.AdversarySweep` budget grid over it on the
columnar store path (inline executor — deterministic and 1-core friendly)
and reduce the per-budget verdicts to attack-success rates:

* ``poisoning-grid`` *fabricates* censorship of a pair the honest campaign
  does not flag, asking how large a submission/identity budget must grow
  before the naive detector — and then the reputation-filtered detector —
  reports the invented block.
* ``masking-attack`` floods success reports over a detection the honest
  campaign *genuinely makes*, asking when the detection disappears and
  whether reputation filtering restores it.
"""

from __future__ import annotations

from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.robustness import AdversarySweep
from repro.obs.trace import NULL_TRACER
from repro.population.world import World, WorldConfig
from repro.scenarios.base import Scenario, register
from repro.scenarios.longitudinal_suites import TARGET_DOMAINS


def _honest_campaign(world_seed: int, campaign_seed: int, visits: int):
    world = World(
        WorldConfig(
            seed=world_seed,
            target_list_total=30,
            target_list_online=24,
            origin_site_count=4,
        )
    )
    config = CampaignConfig(
        visits=visits,
        include_testbed=False,
        favicons_only=True,
        target_domains=TARGET_DOMAINS,
        seed=campaign_seed,
    )
    return EncoreDeployment(world, config).run_campaign()


def _sweep_quality(
    result,
    target: tuple[str, str],
    budgets: list[tuple[int, int]],
    *,
    fabricate_blocking: bool,
    seed: int,
    tracer,
) -> dict:
    sweep = AdversarySweep(
        fabricate_blocking=fabricate_blocking,
        executor="inline",
        seed=seed,
        tracer=tracer,
    )
    cells = sweep.run(result.collection, *target, budgets)
    naive_wins = [cell for cell in cells if cell.attack_succeeded_naive]
    defended_wins = [cell for cell in cells if cell.attack_succeeded_defended]
    return {
        "target_domain": target[0],
        "target_country": target[1],
        "fabricate_blocking": fabricate_blocking,
        "honest_detection": target in result.detect().detected_pairs(),
        "budgets": len(cells),
        "false_alarms": 0,  # sweeps script no transitions; present for the gate
        "attack_success_rate_naive": round(len(naive_wins) / len(cells), 6),
        "attack_success_rate_defended": round(len(defended_wins) / len(cells), 6),
        "min_budget_naive": min(
            (cell.submissions for cell in naive_wins), default=None
        ),
        "min_budget_defended": min(
            (cell.submissions for cell in defended_wins), default=None
        ),
        "cells": [
            {
                "submissions": cell.submissions,
                "identities": cell.identities,
                "naive": cell.attack_succeeded_naive,
                "defended": cell.attack_succeeded_defended,
                "dropped_rate_limited": cell.dropped_rate_limited,
                "dropped_low_reputation": cell.dropped_low_reputation,
            }
            for cell in cells
        ],
    }


# ----------------------------------------------------------------------
# poisoning-grid: invent a block of a pair the honest campaign is clean on
# ----------------------------------------------------------------------
def run_poisoning_grid(tracer=NULL_TRACER) -> dict:
    result = _honest_campaign(world_seed=7, campaign_seed=11, visits=2500)
    return _sweep_quality(
        result,
        ("facebook.com", "DE"),
        [(100, 4), (400, 8), (1600, 32)],
        fabricate_blocking=True,
        seed=5,
        tracer=tracer,
    )


# ----------------------------------------------------------------------
# masking-attack: hide a detection the honest campaign genuinely makes
# ----------------------------------------------------------------------
def run_masking_attack(tracer=NULL_TRACER) -> dict:
    # The session-test configuration: (youtube.com, PK) is a preset block
    # this campaign genuinely detects, so masking has something to hide.
    result = _honest_campaign(world_seed=7, campaign_seed=11, visits=4000)
    return _sweep_quality(
        result,
        ("youtube.com", "PK"),
        [(50, 2), (200, 8), (600, 24)],
        fabricate_blocking=False,
        seed=9,
        tracer=tracer,
    )


register(
    Scenario(
        name="poisoning-grid",
        description="fabrication budget grid: when does an invented block fool the defences",
        seed=5,
        kind="adversarial",
        build=run_poisoning_grid,
    )
)
register(
    Scenario(
        name="masking-attack",
        description="success-flood budget grid over a real (youtube.com, PK) detection",
        seed=9,
        kind="adversarial",
        build=run_masking_attack,
    )
)
