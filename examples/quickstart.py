"""Quickstart: run a small Encore deployment end to end.

Builds a simulated world (target sites, censors, a client population), wires
up an Encore deployment (task generation, coordination, collection), simulates
a few thousand origin-site visits, and runs the binomial filtering detector
over the collected measurements.

The collected corpus lives in a columnar ``MeasurementStore``
(``result.collection.store``): the per-detection success rates below come
from one grouped (domain, country) count over its column arrays — no
per-row ``Measurement`` objects are ever materialized.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import CampaignConfig, EncoreDeployment, World, WorldConfig
from repro.analysis.reports import format_table
from repro.core.query import grouped_success_counts


def main(seed: int = 1, visits: int = 5000) -> None:
    # A compact world keeps the example fast: 24 online target domains and a
    # handful of origin sites hosting the Encore snippet.
    world = World(WorldConfig(seed=seed, target_list_total=30, target_list_online=24,
                              origin_site_count=6))
    config = CampaignConfig(
        visits=visits,
        include_testbed=False,
        favicons_only=True,
        target_domains=("facebook.com", "youtube.com", "twitter.com"),
        seed=seed,
    )
    deployment = EncoreDeployment(world, config)

    print(f"Generated {len(deployment.target_tasks)} measurement tasks:")
    for task in deployment.target_tasks:
        print(f"  [{task.task_type.value}] {task.target_url}")
    print()

    result = deployment.run_campaign()
    store = result.collection.store
    summary = result.collection.summary()
    print(
        f"Simulated {result.visits_simulated} visits -> "
        f"{int(summary['measurements'])} measurements from "
        f"{int(summary['distinct_ips'])} IPs in {int(summary['countries'])} countries.\n"
    )

    # The detector consumes the store's grouped (domain, country) cells; the
    # per-detection success rates below read the same cells.
    report = result.detect()
    counts = grouped_success_counts(store).as_dict()
    rows = []
    for d in sorted(report.detections, key=lambda d: (d.domain, d.country_code)):
        n, successes = counts[(d.domain, d.country_code)]
        rows.append([
            d.domain, d.country_code, d.measurements, d.successes,
            f"{d.p_value:.2e}", f"{successes / n:.2f}",
        ])
    print("Filtering detections (binomial test, p=0.7, alpha=0.05):")
    print(format_table(
        ["domain", "country", "n", "successes", "p-value", "success rate"], rows
    ))


if __name__ == "__main__":
    main()
