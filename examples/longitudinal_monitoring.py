"""Longitudinal monitoring: catching a censorship onset as it happens.

Encore's promise is *longitudinal* measurement — continuous background
collection that reveals *when* a country starts or stops filtering a site.
This example scripts exactly that scenario: Germany starts hard-blocking
facebook.com on day 8 and lifts the block on day 18 (with a subtle
throttling phase on youtube.com for contrast), while a deployment collects
one epoch of measurements per simulated day.

The pipeline is columnar end to end: every epoch's campaign ingests into
one ``MeasurementStore``, ``grouped_success_counts(store, by_day=True)``
folds the whole corpus into a per-(domain, country) ``DaySeries`` of daily
success counts in a few vectorized passes, and an online CUSUM
change-point detector walks the daily success rates and emits
onset/offset events with their detection lag.  The final scorecard
grades the detector against the scripted ground truth.

The second half turns the same run into an *always-on monitor*: with
``LongitudinalConfig(checkpoint_dir=...)`` each epoch folds only its new
rows into the day-bucketed aggregate, advances a resumable CUSUM state over
only the new day columns, and checkpoints that state — so a killed monitor
restarted on the same checkpoint directory re-adopts the completed epochs'
rows from their manifests, picks the scan up mid-series, and ends with
events identical to a never-interrupted run.

Run with::

    python examples/longitudinal_monitoring.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    CampaignConfig,
    EncoreDeployment,
    LongitudinalConfig,
    PolicyTimeline,
    World,
    WorldConfig,
)

ONSET_DAY = 8
OFFSET_DAY = 18
EPOCHS = 26
#: The epoch after which the always-on monitor demo gets "killed".
KILL_AFTER = 12


def build_deployment() -> EncoreDeployment:
    # A compact world; every visitor pinned to Germany so the timeline's
    # target (facebook.com, DE) cell gets dense daily coverage.
    world = World(
        WorldConfig(seed=42, target_list_total=30, target_list_online=24, origin_site_count=4)
    )
    config = CampaignConfig(
        visits=250,
        include_testbed=False,
        favicons_only=True,
        target_domains=("facebook.com", "youtube.com", "twitter.com"),
        country_code="DE",
        seed=42,
    )
    return EncoreDeployment(world, config)


def build_timeline() -> PolicyTimeline:
    return (
        PolicyTimeline()
        .onset(ONSET_DAY, "DE", "facebook.com")
        .offset(OFFSET_DAY, "DE", "facebook.com")
        # Throttling completes fetches slowly — the subtle filtering the
        # paper notes Encore struggles to see; it should emit no event.
        .throttle(ONSET_DAY, "DE", "youtube.com")
    )


def always_on_monitor(reference_events) -> None:
    """A killable monitor loop: checkpoint, 'crash', restart, resume."""
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "monitor"
        print(f"\nAlways-on monitor with checkpoint_dir={checkpoint.name}/ ...")
        print(f"  running epochs 0..{KILL_AFTER - 1}, then 'crashing'.")
        build_deployment().run_longitudinal(
            build_timeline(),
            LongitudinalConfig(
                epochs=KILL_AFTER, visits_per_epoch=250,
                checkpoint_dir=str(checkpoint),
            ),
        )
        # A fresh process: new deployment, same seeds, same checkpoint
        # directory, full horizon.  The directory's checkpoint restores the
        # CUSUM state, and completed epochs are re-adopted from their
        # manifests.
        resumed = build_deployment().run_longitudinal(
            build_timeline(),
            LongitudinalConfig(
                epochs=EPOCHS, visits_per_epoch=250,
                checkpoint_dir=str(checkpoint),
            ),
        )
        adopted = sum(1 for epoch in resumed.epochs if epoch.resumed)
        print(f"  restarted: {adopted} epochs adopted from manifests, "
              f"{EPOCHS - adopted} executed fresh.")
        print(f"  monitor state covers {resumed.monitor.days_processed} days; "
              f"events identical to the uninterrupted run: "
              f"{resumed.events() == reference_events}")


def main() -> None:
    deployment = build_deployment()
    timeline = build_timeline()

    print(f"Running {EPOCHS} one-day epochs of 250 visits each (batch mode)...")
    result = deployment.run_longitudinal(
        timeline, LongitudinalConfig(epochs=EPOCHS, visits_per_epoch=250)
    )
    print(f"Collected {len(deployment.collection)} measurements over "
          f"{result.total_days} simulated days.\n")

    # The daily success-rate series the detector saw for the target cell.
    day_counts = result.day_counts()
    series = {
        day: (n, s)
        for (domain, country, day), (n, s) in day_counts.as_dict().items()
        if domain == "facebook.com" and country == "DE"
    }
    print("facebook.com / DE daily success rates:")
    for day in sorted(series):
        n, s = series[day]
        bar = "#" * int(round(20 * s / n))
        marker = " <- onset" if day == ONSET_DAY else (" <- offset" if day == OFFSET_DAY else "")
        print(f"  day {day:2d}  {s:3d}/{n:3d}  {bar:20s}{marker}")

    print("\nDetected change points (online CUSUM):")
    for event in result.events():
        print(f"  {event.kind:6s} {event.domain} in {event.country_code}: "
              f"changed day {event.change_day}, detected day {event.detected_day} "
              f"(lag {event.detection_lag}d, confidence {event.confidence:.2f})")

    print("\nScorecard against the scripted timeline:")
    print(result.timeline_report().format())

    always_on_monitor(result.events())


if __name__ == "__main__":
    main()
