"""Longitudinal quality suites: onset/offset detection and per-country accuracy.

Each suite scripts a :class:`~repro.censor.policy.PolicyTimeline`, runs the
longitudinal engine over a compact pinned-country deployment (the same
scale the tier-1 longitudinal tests use — dense enough daily coverage that
the CUSUM crosses within a couple of days of a real change), grades the
events with :func:`~repro.analysis.reports.build_timeline_report`, and
reduces the scorecard to the QUALITY fields via
:meth:`~repro.analysis.reports.TimelineReport.quality_summary`.
"""

from __future__ import annotations

from repro.analysis.reports import TimelineReport
from repro.censor.policy import PolicyTimeline
from repro.core.longitudinal import LongitudinalConfig
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.obs.trace import NULL_TRACER
from repro.population.world import World, WorldConfig
from repro.scenarios.base import Scenario, register

#: The compact deployment every longitudinal suite runs: one small world,
#: every visitor pinned to the suite's country so the scripted (domain,
#: country) cells get dense daily coverage.
TARGET_DOMAINS = ("facebook.com", "youtube.com", "twitter.com")


def pinned_deployment(
    world_seed: int,
    campaign_seed: int,
    country_code: str,
    favicons_only: bool = True,
) -> EncoreDeployment:
    world = World(
        WorldConfig(
            seed=world_seed,
            target_list_total=30,
            target_list_online=24,
            origin_site_count=4,
        )
    )
    config = CampaignConfig(
        visits=200,
        include_testbed=False,
        favicons_only=favicons_only,
        target_domains=TARGET_DOMAINS,
        seed=campaign_seed,
        country_code=country_code,
    )
    return EncoreDeployment(world, config)


def _graded_run(
    timeline: PolicyTimeline,
    *,
    world_seed: int,
    campaign_seed: int,
    country_code: str,
    epochs: int,
    tracer,
) -> TimelineReport:
    deployment = pinned_deployment(world_seed, campaign_seed, country_code)
    config = LongitudinalConfig(
        epochs=epochs,
        visits_per_epoch=200,
        tracer=tracer,
    )
    return deployment.run_longitudinal(timeline, config).timeline_report()


# ----------------------------------------------------------------------
# onset-smoke: the CI fast lane's gate — one onset, ten epochs
# ----------------------------------------------------------------------
def run_onset_smoke(tracer=NULL_TRACER) -> dict:
    timeline = PolicyTimeline().onset(4, "DE", "facebook.com")
    report = _graded_run(
        timeline,
        world_seed=7,
        campaign_seed=11,
        country_code="DE",
        epochs=10,
        tracer=tracer,
    )
    return report.quality_summary()


# ----------------------------------------------------------------------
# onset-offset: the paper's headline longitudinal story, graded end to end
# ----------------------------------------------------------------------
def run_onset_offset(tracer=NULL_TRACER) -> dict:
    timeline = (
        PolicyTimeline()
        .onset(6, "DE", "facebook.com")
        .offset(14, "DE", "facebook.com")
    )
    report = _graded_run(
        timeline,
        world_seed=7,
        campaign_seed=11,
        country_code="DE",
        epochs=20,
        tracer=tracer,
    )
    return report.quality_summary()


# ----------------------------------------------------------------------
# multi-country: per-country detection accuracy across network qualities
# ----------------------------------------------------------------------
#: (country, domain, onset day, offset day | None) — countries chosen
#: *without* preset censorship of the target domains (a preset block would
#: flatten the scripted transition), spanning reliable (DE, FR) and mixed
#: (BR) network-quality mixes so per-country accuracy actually differs.
MULTI_COUNTRY_SCRIPT = (
    ("DE", "facebook.com", 5, 13),
    ("FR", "twitter.com", 7, 15),
    ("BR", "youtube.com", 9, None),
)


def run_multi_country(tracer=NULL_TRACER) -> dict:
    per_country: dict[str, dict] = {}
    combined = TimelineReport()
    for index, (country, domain, onset_day, offset_day) in enumerate(
        MULTI_COUNTRY_SCRIPT
    ):
        timeline = PolicyTimeline().onset(onset_day, country, domain)
        if offset_day is not None:
            timeline.offset(offset_day, country, domain)
        report = _graded_run(
            timeline,
            world_seed=7 + index,
            campaign_seed=11 + index,
            country_code=country,
            epochs=18,
            tracer=tracer,
        )
        per_country[country] = report.quality_summary()
        combined.matches.extend(report.matches)
        combined.false_events.extend(report.false_events)
    quality = combined.quality_summary()
    quality["countries"] = len(per_country)
    quality["per_country"] = per_country
    return quality


register(
    Scenario(
        name="onset-smoke",
        description="one scripted DE onset over ten epochs — the fast-lane gate",
        seed=11,
        kind="longitudinal",
        build=run_onset_smoke,
        smoke=True,
    )
)
register(
    Scenario(
        name="onset-offset",
        description="scripted DE block + unblock of facebook.com, graded by CUSUM lag",
        seed=11,
        kind="longitudinal",
        build=run_onset_offset,
    )
)
register(
    Scenario(
        name="multi-country",
        description="per-country onset/offset accuracy across DE/FR/BR network mixes",
        seed=11,
        kind="longitudinal",
        build=run_multi_country,
    )
)
