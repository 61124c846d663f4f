"""Throttle quality suite: the censorship signature success rates cannot see.

Bandwidth throttling completes every fetch, so the success-rate CUSUM stays
silent while the per-day ``elapsed_ms`` quantiles shift by the throttle
factor.  This suite scripts a throttle onset and offset, runs the
longitudinal engine with full-size image fetches (``favicons_only=False``
makes the slowdown seconds-scale, the same configuration the tier-1 timing
tests use), grades the :class:`~repro.core.inference.TimingCusumDetector`
events with :func:`~repro.analysis.reports.build_throttle_report`, and
additionally records how many events the success-rate detector emitted —
its expected silence is part of the suite's quality contract.
"""

from __future__ import annotations

from repro.censor.policy import PolicyTimeline
from repro.core.longitudinal import LongitudinalConfig
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.obs.trace import NULL_TRACER
from repro.population.world import World, WorldConfig
from repro.scenarios.base import Scenario, register
from repro.scenarios.longitudinal_suites import TARGET_DOMAINS

THROTTLE_DAY = 5
RELEASE_DAY = 13
EPOCHS = 20


def run_throttle(tracer=NULL_TRACER) -> dict:
    world = World(
        WorldConfig(
            seed=7, target_list_total=30, target_list_online=24, origin_site_count=4
        )
    )
    config = CampaignConfig(
        visits=200,
        include_testbed=False,
        favicons_only=False,
        target_domains=TARGET_DOMAINS,
        seed=31,
        country_code="DE",
    )
    deployment = EncoreDeployment(world, config)
    timeline = (
        PolicyTimeline()
        .throttle(THROTTLE_DAY, "DE", "facebook.com")
        .offset(RELEASE_DAY, "DE", "facebook.com")
    )
    result = deployment.run_longitudinal(
        timeline,
        LongitudinalConfig(
            epochs=EPOCHS,
            visits_per_epoch=200,
            tracer=tracer,
        ),
    )
    quality = result.throttle_report().quality_summary()
    # Throttled fetches complete, so the success-rate detector must stay
    # silent; any event here is a cross-detector false alarm.
    quality["success_rate_events"] = len(result.events())
    return quality


register(
    Scenario(
        name="throttle",
        description="scripted DE throttle + release of facebook.com, graded by timing CUSUM",
        seed=31,
        kind="throttle",
        build=run_throttle,
    )
)
